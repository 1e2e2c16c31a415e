package serve

import (
	"bufio"
	"encoding/hex"
	"net/url"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/wire"
)

// goldenPath holds the query channel's bytes, one "name hex" line per item.
const goldenPath = "testdata/golden_frames.txt"

// goldenItems builds, from fixed inputs, every kind of byte string the query
// channel carries: DialWS's handshake request, the daemon's 101, and one
// message of every socket type as WriteBinary puts it on the transport.
func goldenItems(t *testing.T) (names []string, items [][]byte) {
	t.Helper()
	add := func(name string, b []byte) {
		names = append(names, name)
		items = append(items, b)
	}
	add("handshake-request", appendUpgradeRequest(nil, &url.URL{Scheme: "ws", Host: "127.0.0.1:8046", Path: "/v1/ws"}))
	add("handshake-101", []byte(acceptResponse))

	query := geom.Pt(100, 200)
	answer := core.PeerCache{QueryLoc: query, Neighbors: []core.POI{
		{ID: 3, Loc: geom.Pt(101, 200)},
		{ID: 11, Loc: geom.Pt(100, 203)},
	}}
	share := core.PeerCache{QueryLoc: geom.Pt(500, 600), Neighbors: []core.POI{{ID: 5, Loc: geom.Pt(501, 600)}}}
	for _, m := range []struct {
		name string
		msg  []byte
	}{
		{"position", wire.AppendPosition(nil, geom.Pt(1234.5, -42.25))},
		{"query", wire.AppendQuery(nil, wire.Query{ReqID: 7, K: 5, Loc: query, HasLower: true, Lower: 1.5, HasUpper: true, Upper: 900})},
		{"range", wire.EncodeRange(wire.RangeQuery{ReqID: 8, Loc: geom.Pt(300, 400), Radius: 250})},
		{"answer", wire.AppendAnswer(nil, wire.Answer{ReqID: 9, Pages: 6, Cache: answer})},
		{"error", wire.AppendError(nil, wire.ErrorMsg{ReqID: 10, Code: wire.ErrCodeTooLarge})},
		{"peer-request", wire.AppendPeerRequest(nil, wire.PeerRequest{ReqID: 11, Loc: geom.Pt(500, 600), Radius: 3000})},
		{"peer-probe", wire.AppendPeerProbe(nil, 12)},
		{"share-reply", wire.AppendShareReply(nil, 12, true, share)},
		{"peer-shares", wire.AppendPeerShares(nil, wire.PeerShares{ReqID: 11, PeersInRange: 2, Shares: []core.PeerCache{share}})},
	} {
		if _, err := wire.Decode(m.msg); err != nil {
			t.Fatalf("%s: the fixed input does not decode: %v", m.name, err)
		}
		sink := &sinkConn{}
		if err := (&WSConn{conn: sink}).WriteBinary(m.msg); err != nil {
			t.Fatal(err)
		}
		add(m.name, sink.out.Bytes())
	}
	return names, items
}

// The query channel's bytes are frozen in testdata/golden_frames.txt: a
// change to the handshake, the framing or the wire codec shows up as a
// reviewed diff of that file. On a mismatch the test prints the item's new
// line, which replaces the old one by hand.
func TestGoldenFrames(t *testing.T) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	var order []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, hexBytes, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: line %q is not \"name hex\"", goldenPath, sc.Text())
		}
		want[name] = hexBytes
		order = append(order, name)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	names, items := goldenItems(t)
	if strings.Join(order, " ") != strings.Join(names, " ") {
		t.Errorf("%s names %v, want %v", goldenPath, order, names)
	}
	for i, name := range names {
		if got := hex.EncodeToString(items[i]); got != want[name] {
			t.Errorf("%s changed; its line now reads\n%s %s", name, name, got)
		}
	}
}
