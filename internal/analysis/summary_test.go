package analysis

import "testing"

// The summary layer's correctness rests on one thing the rest of the suite
// only assumes: that the fixpoint actually closes blocking/loop/error facts
// over same-package calls. It is pinned here against the analyzer fixtures.

func loadFixturePkg(t *testing.T, name string) *Package {
	t.Helper()
	loader := NewLoader()
	pkg, err := loader.Load("testdata/src/"+name, "testdata/"+name)
	if err != nil {
		t.Fatalf("load %s fixture: %v", name, err)
	}
	if pkg == nil {
		t.Fatalf("%s fixture has no Go files", name)
	}
	return pkg
}

func summaryOf(t *testing.T, sums *Summaries, name string) *FuncSummary {
	t.Helper()
	for _, fs := range sums.list {
		if fs.Obj.Name() == name {
			return fs
		}
	}
	t.Fatalf("no summary for %s", name)
	return nil
}

func TestSummaryErrAndBlockFacts(t *testing.T) {
	pkg := loadFixturePkg(t, "errsink")
	sums := Summarize(NewPass(ErrSink, pkg))

	send := summaryOf(t, sums, "sendFrame")
	if !send.ErrSource {
		t.Error("sendFrame wraps conn.Write and returns its error; want ErrSource")
	}
	if !send.MayBlock || send.BlockDesc != "net.Conn Write" {
		t.Errorf("sendFrame MayBlock=%v BlockDesc=%q, want true/net.Conn Write", send.MayBlock, send.BlockDesc)
	}
	if fire := summaryOf(t, sums, "fire"); fire.ErrSource || fire.MayBlock {
		t.Error("fire does nothing; want no ErrSource, no MayBlock")
	}
}

func TestSummaryLoopFixpoint(t *testing.T) {
	pkg := loadFixturePkg(t, "goleak")
	sums := Summarize(NewPass(GoLeak, pkg))

	if spin := summaryOf(t, sums, "spinForever"); !spin.LoopsForever {
		t.Error("spinForever: want LoopsForever")
	}
	// runLoop loops only through its call to spinForever — the closed fact.
	if run := summaryOf(t, sums, "runLoop"); !run.LoopsForever {
		t.Error("runLoop reaches spinForever; want LoopsForever via fixpoint")
	}
	if w := summaryOf(t, sums, "work"); w.LoopsForever {
		t.Error("work is straight-line; want !LoopsForever")
	}
}
