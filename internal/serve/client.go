package serve

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/wire"
)

// SENNClient is a networked mobile host: the same Algorithm-1 client core
// the simulator runs (internal/client), wired to the daemon instead of a
// grid snapshot. Peer caches arrive through the daemon's relay
// (PeerRequest → PeerShares) and the server fallback travels as a bounded
// wire Query, so a peer-certified answer here is produced by the identical
// verification code path a simulated host uses — which is what keeps the
// served system oracle-exact against the in-process one.
//
// The client is synchronous and single-goroutine: every Query drives the
// connection itself, answering any PeerProbe that arrives while it waits
// for its own PeerShares or Answer. That inline servicing is not a
// convenience — a probed client that refused to reply until its own query
// finished would force every neighbor's relay onto the timeout path.
type SENNClient struct {
	ws       *WSConn
	cache    *cache.Cache
	resolver *client.Resolver
	txRange  float64
	sharing  bool

	pos     geom.Point
	nextReq uint32
	// shares holds the caches relayed for the current query (their Neighbors
	// alias decScratch, reused per exchange — the resolver copies anything it
	// keeps); peerSrc and srv are the resolver's transport adapters, embedded
	// so taking their address allocates nothing. encBuf and decScratch make
	// the steady-state exchange allocation-free on both directions of the
	// relay channel, mirroring serveConn's pooled AppendAnswer buffer.
	shares     []core.PeerCache
	peerSrc    relayPeerSource
	srv        wireServer
	encBuf     []byte
	decScratch wire.SharesScratch

	// relayObs, when set, observes each completed relay exchange's latency
	// (PeerRequest written → PeerShares decoded).
	relayObs func(time.Duration)

	stats ClientStats
}

// ClientStats are one client's cumulative counters.
type ClientStats struct {
	// Queries issued, split by how they resolved. PeerSolved counts every
	// query certified without the server (single-peer, multi-peer);
	// OwnCacheSolved is the subset certified with zero relayed shares —
	// the host's own cache entry sufficed.
	Queries        int64
	PeerSolved     int64
	OwnCacheSolved int64
	ServerSolved   int64
	// SharesReceived counts peer caches delivered by the relay;
	// ProbesAnswered counts PeerProbes this client replied to.
	SharesReceived int64
	ProbesAnswered int64
	// PeerMsgs and PeerBytes are the P2P exchange cost at air-interface
	// (CacheRequest/CacheShare) codec sizes — the same accounting the
	// simulator reports, so the two are comparable.
	PeerMsgs  int64
	PeerBytes int64
	// Pages is the server-side page-access cost of this client's fallback
	// queries.
	Pages int64
}

// NewSENNClient wraps an established session connection. capacity is the
// local cache size C_Size (minimum 1); txRange is the transmission radius
// sent with every PeerRequest; sharing=false skips the relay exchange
// entirely (a host with its radio off — the server-only baseline).
func NewSENNClient(ws *WSConn, capacity int, txRange float64, sharing bool) *SENNClient {
	if capacity < 1 {
		capacity = 1
	}
	c := &SENNClient{
		ws:       ws,
		cache:    cache.New(capacity),
		resolver: client.NewResolver(),
		txRange:  txRange,
		sharing:  sharing,
	}
	c.peerSrc.c = c
	c.srv.c = c
	return c
}

// Stats returns the cumulative counters.
func (c *SENNClient) Stats() ClientStats { return c.stats }

// SetRelayObserver installs fn to be called with the wall-clock latency of
// each completed relay exchange (load harnesses feed these into their
// percentile digests). nil removes the observer.
func (c *SENNClient) SetRelayObserver(fn func(time.Duration)) { c.relayObs = fn }

// Cache exposes the client's local cache (tests prime and inspect it). An
// Entry read from it is valid until the client's next Query stores.
func (c *SENNClient) Cache() *cache.Cache { return c.cache }

// Move streams the client's new position to the daemon. The position is
// what the relay's range sweep reads (and what keeps the server's spatial
// directory current), so it must precede any Query that expects neighbors
// to see this host.
func (c *SENNClient) Move(p geom.Point) error {
	c.pos = p
	c.encBuf = wire.AppendPosition(c.encBuf[:0], p)
	return c.ws.WriteBinary(c.encBuf)
}

// Query resolves a k-nearest-neighbor query at the client's current
// position: relay exchange, local verification via the shared client core,
// bounded server fallback only for the uncertified remainder. The returned
// candidates are a private copy in ascending distance order.
func (c *SENNClient) Query(k int) ([]core.Candidate, core.Source, error) {
	c.resolver.ResetArena()
	var ps client.PeerSource
	if c.sharing {
		if err := c.gatherShares(); err != nil {
			return nil, 0, err
		}
		ps = &c.peerSrc
	}
	out := c.resolver.Resolve(client.Request{
		Q:          c.pos,
		K:          k,
		Cache:      c.cache,
		NeedAnswer: true,
	}, ps, &c.srv)
	if out.Err != nil {
		return nil, out.Src, out.Err
	}
	if out.Write.Staged() {
		out.Write.Apply(c.cache)
	}
	c.stats.Queries++
	c.stats.PeerMsgs += out.Msgs
	c.stats.PeerBytes += out.Bytes
	c.stats.Pages += out.Pages
	if out.PeerSolved() {
		c.stats.PeerSolved++
		if len(c.shares) == 0 {
			c.stats.OwnCacheSolved++
		}
	} else {
		c.stats.ServerSolved++
	}
	return out.Answer, out.Src, nil
}

// Range issues a range query at the client's current position, servicing
// relay probes while it waits. It returns the number of POIs within the
// radius. Range answers are certain regions, but they are not distance
// prefixes, so they never enter the NN cache.
func (c *SENNClient) Range(radius float64) (int, error) {
	c.nextReq++
	reqID := c.nextReq
	if err := c.ws.WriteBinary(wire.EncodeRange(wire.RangeQuery{
		ReqID:  reqID,
		Loc:    c.pos,
		Radius: radius,
	})); err != nil {
		return 0, err
	}
	msg, err := c.await(wire.TypeAnswer, reqID)
	if err != nil {
		return 0, err
	}
	return len(msg.Answer.Cache.Neighbors), nil
}

// gatherShares runs the relay exchange: send PeerRequest, service probes,
// collect the PeerShares aggregate into c.shares.
func (c *SENNClient) gatherShares() error {
	c.shares = c.shares[:0]
	c.nextReq++
	reqID := c.nextReq
	c.encBuf = wire.AppendPeerRequest(c.encBuf[:0], wire.PeerRequest{
		ReqID:  reqID,
		Loc:    c.pos,
		Radius: c.txRange,
	})
	var start time.Time
	if c.relayObs != nil {
		start = time.Now()
	}
	if err := c.ws.WriteBinary(c.encBuf); err != nil {
		return err
	}
	msg, err := c.await(wire.TypePeerShares, reqID)
	if err != nil {
		return err
	}
	if c.relayObs != nil {
		c.relayObs(time.Since(start))
	}
	// The decoder has already enforced ascending neighbor order on every
	// share, so they feed the resolver directly — no re-sort.
	c.shares = append(c.shares, msg.Shares.Shares...)
	c.stats.SharesReceived += int64(len(msg.Shares.Shares))
	return nil
}

// await reads frames until the reply to request reqID — an Answer or a
// PeerShares, as want says — arrives, and returns it. Every PeerProbe that
// comes first is answered on the spot, whichever reply is awaited; an Error
// frame, a reply of the other type or a reply to another request fails the
// wait. A PeerShares frame is decoded into the client's reusable scratch
// (wire.DecodePeerSharesInto), so a steady stream of exchanges allocates
// nothing once the scratch has grown to the neighborhood's working-set size —
// the decode-side mirror of the pooled encode buffer.
func (c *SENNClient) await(want byte, reqID uint32) (wire.Message, error) {
	for {
		data, err := c.ws.ReadMessage()
		if err != nil {
			return wire.Message{}, err
		}
		typ, err := wire.PeekType(data)
		if err != nil {
			return wire.Message{}, err
		}
		var msg wire.Message
		if typ == wire.TypePeerShares {
			msg.Type = typ
			msg.Shares, err = wire.DecodePeerSharesInto(data, &c.decScratch)
		} else {
			msg, err = wire.Decode(data)
		}
		if err != nil {
			return wire.Message{}, err
		}
		switch {
		case msg.Type == wire.TypePeerProbe:
			if err := c.answerProbe(msg.ProbeID); err != nil {
				return wire.Message{}, err
			}
			continue
		case msg.Type == wire.TypeError:
			return wire.Message{}, fmt.Errorf("serve: client: server error code %d for request %d",
				msg.Err.Code, reqID)
		case msg.Type != want:
			return wire.Message{}, fmt.Errorf("serve: client: unexpected %d frame while awaiting request %d",
				msg.Type, reqID)
		}
		got := msg.Answer.ReqID
		if want == wire.TypePeerShares {
			got = msg.Shares.ReqID
		}
		if got != reqID {
			return wire.Message{}, fmt.Errorf("serve: client: reply for request %d, want %d", got, reqID)
		}
		return msg, nil
	}
}

// answerProbe replies to a relay probe with this host's cache entry (or an
// empty reply — mandatory either way, so the relay's countdown completes).
// The entry aliases the cache and is overwritten in place by this client's
// next Store, so it is encoded here, at probe time, and never held: a probe
// serviced in the middle of a query ships the entry that query started with
// (TestProbeBetweenQueriesShipsCurrentEntry).
func (c *SENNClient) answerProbe(probeID uint32) error {
	c.stats.ProbesAnswered++
	ent, ok := c.cache.Entry()
	if !ok {
		ent = core.PeerCache{}
	}
	c.encBuf = wire.AppendShareReply(c.encBuf[:0], probeID, ok, ent)
	return c.ws.WriteBinary(c.encBuf)
}

// relayPeerSource adapts the relayed shares to client.PeerSource. The cost
// accounting uses air-interface (CacheRequest/CacheShare) codec sizes, not
// relay-frame sizes: PeerBytes then measures the paper's P2P channel and
// stays directly comparable with the simulator's metric.
type relayPeerSource struct{ c *SENNClient }

func (r *relayPeerSource) Gather(q geom.Point, dst []core.PeerCache) ([]core.PeerCache, int64, int64) {
	msgs, bytes := int64(1), int64(wire.CacheRequestSize)
	for _, sh := range r.c.shares {
		msgs++
		bytes += int64(wire.CacheShareSize(len(sh.Neighbors)))
	}
	return append(dst, r.c.shares...), msgs, bytes
}

// wireServer adapts the daemon's query channel to client.Server: the §3.3
// pruning bounds ride inside the wire Query, so the EINN search runs
// bounded server-side exactly as the in-process fallback does.
type wireServer struct{ c *SENNClient }

func (w *wireServer) KNNInto(q geom.Point, k int, b nn.Bounds, dst []core.POI) ([]core.POI, int64, error) {
	c := w.c
	c.nextReq++
	reqID := c.nextReq
	c.encBuf = wire.AppendQuery(c.encBuf[:0], wire.Query{
		ReqID:    reqID,
		K:        k,
		Loc:      q,
		HasLower: b.HasLower,
		Lower:    b.Lower,
		HasUpper: b.HasUpper,
		Upper:    b.Upper,
	})
	if err := c.ws.WriteBinary(c.encBuf); err != nil {
		return nil, 0, err
	}
	msg, err := c.await(wire.TypeAnswer, reqID)
	if err != nil {
		return nil, 0, err
	}
	return append(dst[:0], msg.Answer.Cache.Neighbors...), msg.Answer.Pages, nil
}
