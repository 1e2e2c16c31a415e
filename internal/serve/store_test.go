package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/sim"
)

func TestStoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(8000, 8000)}
	// 1000 POIs take several of readStore's buffers; also try counts at a
	// buffer's exact boundary and an empty store.
	perRead := storeReadBuf / storePointSize
	for _, n := range []int{0, 1, perRead, perRead + 1, 1000} {
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
// daemon must boot from a store written by any earlier build of the same
// version. The digest was recorded from version 2's first WriteStore; any
// change to it is a format change and needs a new storeVersion.
func TestStoreFormatUnchanged(t *testing.T) {
	const want = "604f2a0f7987f7e62496d17279038d0ae82c9b34bb382ca4299ab6629c136df6"
	rng := rand.New(rand.NewSource(40))
	pois := make([]core.POI, 500)
	for i := range pois {
		pois[i] = core.POI{ID: int64(i), Loc: geom.Pt(rng.Float64()*9000-1000, rng.Float64()*7000)}
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
	if len(b) != 52+500*16 {
		t.Errorf("store is %d bytes, want a 52-byte header and 500 POIs at 16 bytes", len(b))
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

// A store has no ID column, so a POI whose ID is not its row cannot be
// written: it would come back under another ID.
func TestWriteStoreRejectsNonRowIDs(t *testing.T) {
	pois := []core.POI{{ID: 0}, {ID: 2, Loc: geom.Pt(1, 1)}}
	path := filepath.Join(t.TempDir(), "pois.senp")
	err := WriteStore(path, pois, 30, geom.Rect{})
	if err == nil || !strings.Contains(err.Error(), "row 1 has ID 2") {
		t.Fatalf("err = %v, want the row and ID named", err)
	}
	if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
		t.Errorf("a refused store left a file behind: %v", serr)
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
		{"bad version", func(t *testing.T, p string) { patch(t, p, 4, []byte{9}) }, "version 9"},
		{"version 1", func(t *testing.T, p string) { patch(t, p, 4, []byte{1}) }, "version 1, this build reads version 2: write it again with senn-serverd -mkstore"},
		{"tiny fanout", func(t *testing.T, p string) { patch(t, p, 8, []byte{1, 0, 0, 0}) }, "fanout"},
		{"count lies", func(t *testing.T, p string) {
			var cnt [8]byte
			binary.LittleEndian.PutUint64(cnt[:], 5000)
			patch(t, p, 12, cnt[:])
		}, "size"},
		{"nan bounds", func(t *testing.T, p string) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(math.NaN()))
			patch(t, p, 20, b[:])
		}, "bounds"},
		{"truncated", func(t *testing.T, p string) {
			if err := os.Truncate(p, storeHeaderSize+9*storePointSize); err != nil {
				t.Fatal(err)
			}
		}, "size"},
		{"unaligned", func(t *testing.T, p string) {
			if err := os.Truncate(p, storeHeaderSize+10*storePointSize-8); err != nil {
				t.Fatal(err)
			}
		}, "size"},
		{"trailing bytes", func(t *testing.T, p string) {
			if err := os.Truncate(p, storeHeaderSize+10*storePointSize+1); err != nil {
				t.Fatal(err)
			}
		}, "size"},
		{"header cut", func(t *testing.T, p string) {
			if err := os.Truncate(p, storeHeaderSize-1); err != nil {
				t.Fatal(err)
			}
		}, "header"},
		{"empty", func(t *testing.T, p string) {
			if err := os.Truncate(p, 0); err != nil {
				t.Fatal(err)
			}
		}, "header"},
		{"nan poi", func(t *testing.T, p string) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(math.NaN()))
			patch(t, p, storeHeaderSize+3*storePointSize+8, b[:])
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

// A read that fails mid-store fails the load; it never leaves a buffer of
// stale bytes to be decoded as POIs. The size check has already proved the
// file long enough, so only the device (or a file shrinking under the
// reader) can fail a read, and the test stands in for it.
func TestReadStoreReportsReadErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}
	path := filepath.Join(t.TempDir(), "pois.senp")
	if err := WriteStore(path, sim.RandomPOIs(400, bounds, rng), 16, bounds); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	eio := errors.New("input/output error")
	// In the header, at the body's first byte, inside the first buffer, at
	// the second buffer's first byte and inside it.
	for _, at := range []int{0, 20, storeHeaderSize, storeHeaderSize + 100, storeHeaderSize + storeReadBuf, storeHeaderSize + storeReadBuf + 100} {
		r := io.MultiReader(bytes.NewReader(data[:at]), iotest.ErrReader(eio))
		if _, _, err := readStore(r, int64(len(data)), path); !errors.Is(err, eio) {
			t.Errorf("read failing at byte %d of %d: err = %v, want the read's error", at, len(data), err)
		}
	}
}

// A store has one spelling: any bytes readStore accepts are exactly the
// bytes WriteStore writes for what they decode to (encodeStore is its
// encoder), so no padding, trailing byte or stale field is ever accepted
// and ignored.
func FuzzReadStore(f *testing.F) {
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}
	valid, err := encodeStore(sim.RandomPOIs(3, bounds, rand.New(rand.NewSource(34))), 30, bounds)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	// An empty version-1 store: the same header fields on a zero-padded
	// 4 KiB page.
	v1 := make([]byte, 4096)
	copy(v1, valid[:storeHeaderSize])
	binary.LittleEndian.PutUint32(v1[4:], 1)
	binary.LittleEndian.PutUint64(v1[12:], 0)
	f.Add(v1)
	f.Fuzz(func(t *testing.T, data []byte) {
		info, pois, err := readStore(bytes.NewReader(data), int64(len(data)), "fuzz")
		if err != nil {
			return
		}
		if info.Count != len(pois) {
			t.Fatalf("count %d, %d POIs", info.Count, len(pois))
		}
		back, err := encodeStore(pois, info.Fanout, info.Bounds)
		if err != nil {
			t.Fatalf("accepted store does not encode: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("accepted %d bytes re-encode to %d different ones:\n in %x\nout %x", len(data), len(back), data, back)
		}
	})
}
