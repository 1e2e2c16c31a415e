package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/sim"
)

func TestStoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(8000, 8000)}
	// 1000 POIs straddles several pages; also try counts at exact page
	// boundaries and an empty store.
	for _, n := range []int{0, 1, poisPerPage, poisPerPage + 1, 1000} {
		pois := sim.RandomPOIs(n, bounds, rng)
		path := filepath.Join(t.TempDir(), "pois.senp")
		if err := WriteStore(path, pois, 30, bounds); err != nil {
			t.Fatalf("n=%d: write: %v", n, err)
		}
		info, got, err := ReadStore(path)
		if err != nil {
			t.Fatalf("n=%d: read: %v", n, err)
		}
		if info.Count != n || info.Fanout != 30 || info.Bounds != bounds {
			t.Fatalf("n=%d: info = %+v", n, info)
		}
		if len(got) != len(pois) {
			t.Fatalf("n=%d: %d POIs back, want %d", n, len(got), len(pois))
		}
		for i := range pois {
			if got[i].ID != pois[i].ID ||
				math.Float64bits(got[i].Loc.X) != math.Float64bits(pois[i].Loc.X) ||
				math.Float64bits(got[i].Loc.Y) != math.Float64bits(pois[i].Loc.Y) {
				t.Fatalf("n=%d: POI %d = %+v, want %+v", n, i, got[i], pois[i])
			}
		}
		// What the daemon serves is what the simulator simulates: the index
		// packed from the read-back store is the in-memory one, node for node.
		a, _ := sim.NewServerModule(pois, info.Fanout).Tree().Root()
		b, _ := sim.NewServerModule(got, info.Fanout).Tree().Root()
		if !sameIndex(a, b) {
			t.Fatalf("n=%d: the index built from the store differs from the one built from the POIs", n)
		}
	}
}

// sameIndex compares two R*-tree nodes and everything below them: levels,
// entry counts, item numbers in slot order and every coordinate bit for bit.
func sameIndex(a, b rtree.Node) bool {
	if a.IsLeaf() != b.IsLeaf() || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		ra, rb := a.Rect(i), b.Rect(i)
		for _, c := range [][2]float64{{ra.Min.X, rb.Min.X}, {ra.Min.Y, rb.Min.Y}, {ra.Max.X, rb.Max.X}, {ra.Max.Y, rb.Max.Y}} {
			if math.Float64bits(c[0]) != math.Float64bits(c[1]) {
				return false
			}
		}
		if a.IsLeaf() && a.Ref(i) != b.Ref(i) || !a.IsLeaf() && !sameIndex(a.Child(i), b.Child(i)) {
			return false
		}
	}
	return true
}

// The store file's bytes are a format, not an implementation detail: a
// daemon must boot from a store written by any earlier build. The digest
// was recorded from WriteStore as it stood before the store did its own file
// I/O (it wrote through a generic page-file type then); any change to it is
// a format change and needs a new storeVersion.
func TestStoreFormatUnchanged(t *testing.T) {
	const want = "211e9347c46e5d2fe3d69c1a485b74ee9381cee2b3c5246e00052d4f61d37cf4"
	rng := rand.New(rand.NewSource(40))
	pois := make([]core.POI, 500)
	for i := range pois {
		pois[i] = core.POI{ID: int64(i)*1_000_003 - 250_000, Loc: geom.Pt(rng.Float64()*9000-1000, rng.Float64()*7000)}
	}
	bounds := geom.Rect{Min: geom.Pt(-1000, 0), Max: geom.Pt(8000, 7000)}
	path := filepath.Join(t.TempDir(), "pois.senp")
	if err := WriteStore(path, pois, 30, bounds); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 4*storePageSize {
		t.Errorf("store is %d bytes, want 4 pages (a header and 500 POIs at %d per page)", len(b), poisPerPage)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("store SHA-256 %s, want %s", got, want)
	}
}

func TestWriteStoreRejectsBadFanout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pois.senp")
	if err := WriteStore(path, nil, 3, geom.Rect{}); err == nil {
		t.Fatal("fanout 3 accepted")
	}
}

// Every corruption mode must be detected at open, not surface later as a
// wrong answer.
func TestReadStoreRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}
	pois := sim.RandomPOIs(10, bounds, rng)

	write := func(t *testing.T) string {
		path := filepath.Join(t.TempDir(), "pois.senp")
		if err := WriteStore(path, pois, 16, bounds); err != nil {
			t.Fatal(err)
		}
		return path
	}
	patch := func(t *testing.T, path string, off int64, b []byte) {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt(b, off); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
		wantSub string
	}{
		{"bad magic", func(t *testing.T, p string) { patch(t, p, 0, []byte{0xde, 0xad}) }, "magic"},
		{"bad version", func(t *testing.T, p string) { patch(t, p, 4, []byte{9}) }, "version"},
		{"tiny fanout", func(t *testing.T, p string) { patch(t, p, 8, []byte{1, 0, 0, 0}) }, "fanout"},
		{"count lies", func(t *testing.T, p string) {
			var cnt [8]byte
			binary.LittleEndian.PutUint64(cnt[:], 5000)
			patch(t, p, 12, cnt[:])
		}, "pages"},
		{"nan bounds", func(t *testing.T, p string) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(math.NaN()))
			patch(t, p, 20, b[:])
		}, "bounds"},
		{"truncated", func(t *testing.T, p string) {
			if err := os.Truncate(p, storePageSize); err != nil {
				t.Fatal(err)
			}
		}, "pages"},
		{"unaligned", func(t *testing.T, p string) {
			if err := os.Truncate(p, storePageSize+100); err != nil {
				t.Fatal(err)
			}
		}, "aligned"},
		{"empty", func(t *testing.T, p string) {
			if err := os.Truncate(p, 0); err != nil {
				t.Fatal(err)
			}
		}, "empty"},
		{"nan poi", func(t *testing.T, p string) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(math.NaN()))
			patch(t, p, storePageSize+8, b[:])
		}, "POI"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := write(t)
			tc.corrupt(t, path)
			_, _, err := ReadStore(path)
			if err == nil {
				t.Fatal("corrupt store accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}
