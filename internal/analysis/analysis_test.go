package analysis

import "testing"

func TestAnnotationKey(t *testing.T) {
	cases := []struct {
		comment string
		key     string
		ok      bool
	}{
		{"//simvet:ordered", "ordered", true},
		{"//simvet:ordered — summation is commutative", "ordered", true},
		{"//simvet:lockio serializes the frame", "lockio", true},
		{"// simvet:ordered", "", false}, // a space disables, like //go: directives
		{"//simvet:", "", false},
		{"// plain comment", "", false},
		{"//simvet:ORDERED", "", false}, // keys are lowercase only
	}
	for _, c := range cases {
		key, ok := annotationKey(c.comment)
		if key != c.key || ok != c.ok {
			t.Errorf("annotationKey(%q) = (%q, %v), want (%q, %v)",
				c.comment, key, ok, c.key, c.ok)
		}
	}
}

func TestModulePath(t *testing.T) {
	if _, err := modulePath("testdata/no-such-go.mod"); err == nil {
		t.Error("modulePath on a missing file: want error, got nil")
	}
	p, err := modulePath("../../go.mod")
	if err != nil {
		t.Fatal(err)
	}
	if p != "repro" {
		t.Errorf("modulePath(go.mod) = %q, want %q", p, "repro")
	}
}
