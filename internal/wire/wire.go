// Package wire provides the binary message codec for the system's two
// channels. The peer-to-peer channel carries cached NN results over
// short-range ad-hoc links (IEEE 802.11x); the codec makes that exchange
// concrete so the simulator can account for the communication overhead the
// paper names as the technique's main cost ("it may increase the
// communication overheads among mobile hosts", §2). The client-server
// channel (internal/serve) carries position updates, kNN/range queries, and
// served answers between a mobile client and the remote spatial database
// over WebSocket binary frames.
//
// The format is a fixed little-endian layout with a versioned header:
//
//	offset  size  field
//	0       4     magic "SENN"
//	4       1     version (1)
//	5       1     message type
//	6       ...   type-specific payload
//
// A CacheShare payload carries the peer's cached query location and its
// certain nearest neighbors:
//
//	6       8+8   query location x, y (float64)
//	22      4     neighbor count n (uint32)
//	26      n*24  neighbors: id (int64), x, y (float64)
//
// The client-server payloads are documented on their message types below.
// Encoding is canonical: for every message Decode accepts (except
// CacheShare, whose decoder re-sorts neighbors), re-encoding the decoded
// message reproduces the input bytes exactly — the property the round-trip
// fuzz targets pin.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/geom"
)

// Message types.
const (
	// TypeCacheShare carries a PeerCache from a peer to the querying host.
	TypeCacheShare byte = 1
	// TypeCacheRequest asks peers in range to share their caches. Its
	// payload is empty; the type exists so request traffic can be accounted.
	TypeCacheRequest byte = 2

	// Client-server channel (internal/serve).

	// TypePosition is a client position update:
	//
	//	6       8+8   position x, y (float64)
	TypePosition byte = 3
	// TypeQuery is a kNN request shipped with the paper's §3.3 pruning
	// bounds (the part of the query the client could not certify from
	// peers):
	//
	//	6       4     request id (uint32)
	//	10      4     k (uint32, 1..MaxQueryK)
	//	14      8+8   query location x, y (float64)
	//	30      1     bound flags (bit 0: lower, bit 1: upper)
	//	31      8     lower bound (float64; zero bits when unset)
	//	39      8     upper bound (float64; zero bits when unset)
	TypeQuery byte = 4
	// TypeRange is a range request: every POI within the radius.
	//
	//	6       4     request id (uint32)
	//	10      8+8   query location x, y (float64)
	//	26      8     radius (float64, finite, >= 0)
	TypeRange byte = 5
	// TypeAnswer is the server's reply to a Query or Range request. Its
	// body is the certain-region metadata a client caches and later shares
	// and verifies exactly like a simulated host: the echoed query location
	// plus the complete ascending-by-distance neighbor set (for a kNN
	// answer the certain radius is the distance to the last neighbor; for a
	// range answer it is the requested radius).
	//
	//	6       4     request id (uint32)
	//	10      8     page accesses this query cost the server (int64, >= 0)
	//	18      8+8   query location x, y (float64)
	//	34      4     neighbor count n (uint32)
	//	38      n*24  neighbors: id (int64), x, y (float64), ascending dist
	TypeAnswer byte = 6
	// TypeError is the server's per-request failure reply.
	//
	//	6       4     request id (uint32; 0 when no request is attributable)
	//	10      4     error code (uint32)
	TypeError byte = 7

	// Daemon-relayed peer channel (internal/serve). On real connections
	// mobile hosts have no ad-hoc radio, so the P2P exchange of §4.1 runs
	// through the daemon: the requester asks the server to relay a cache
	// request to every session within transmission range of its position,
	// probed peers answer with their cached result, and the server forwards
	// the collected shares back in one aggregated reply.

	// TypePeerRequest asks the server to relay a cache request to sessions
	// in range (client → server):
	//
	//	6       4     request id (uint32)
	//	10      8+8   requester location x, y (float64)
	//	26      8     requested transmission range (float64, finite, >= 0;
	//	              the server clamps it to its configured maximum)
	TypePeerRequest byte = 8
	// TypePeerProbe is the relayed cache request (server → probed peer). A
	// probed peer must answer with a ShareReply echoing the probe id —
	// including when its cache is empty, so the relay can complete without
	// waiting out its deadline:
	//
	//	6       4     probe id (uint32)
	TypePeerProbe byte = 9
	// TypeShareReply is a probed peer's cache share (peer → server):
	//
	//	6       4     probe id (uint32)
	//	10      1     has-cache flag (0 or 1)
	//	11      8+8   cached query location x, y (zero bits when empty)
	//	27      4     neighbor count n (uint32; 0 when empty, >= 1 when not)
	//	31      n*24  neighbors: id (int64), x, y (float64), ascending dist
	//
	// Unlike the ad-hoc CacheShare, a ShareReply's neighbor order is part of
	// the protocol (ascending distance from the cached query location, the
	// order every cache entry already has); the decoder validates instead of
	// re-sorting, keeping the encoding canonical.
	TypeShareReply byte = 10
	// TypePeerShares is the aggregated relay result (server → requester):
	//
	//	6       4     request id (uint32)
	//	10      4     peers in range (uint32: sessions probed)
	//	14      4     share count m (uint32)
	//	18      ...   m shares, each: query location x, y (float64),
	//	              neighbor count n (uint32, >= 1), then n*24 neighbors
	//	              (id, x, y) in ascending distance order
	TypePeerShares byte = 11
)

// Error codes carried by TypeError messages.
const (
	// ErrCodeBadRequest: malformed or out-of-range request parameters.
	ErrCodeBadRequest uint32 = 1
	// ErrCodeUnsupported: a message type this channel does not serve
	// (e.g. a peer-channel CacheShare sent to the server).
	ErrCodeUnsupported uint32 = 2
	// ErrCodeTooLarge: the answer would exceed the channel's message cap.
	ErrCodeTooLarge uint32 = 3
)

// MaxQueryK caps the k a Query message may carry, bounding the answer a
// well-formed request can demand (AnswerSize(MaxQueryK) ≈ 96 KiB, well under
// the transport's message cap).
const MaxQueryK = 4096

// MaxShareNeighbors caps the neighbors one relayed share (ShareReply, or a
// share inside PeerShares) may carry. A cache entry is at most the peer's
// cache capacity deep, which is always far below this; anything larger is a
// forged or corrupt share, rejected at decode before it can bloat a relay
// fan-out.
const MaxShareNeighbors = MaxQueryK

const (
	version    byte = 1
	headerSize      = 6
	pointSize       = 16
	poiSize         = 24
)

var magic = [4]byte{'S', 'E', 'N', 'N'}

// Errors returned by Decode.
var (
	ErrTooShort   = errors.New("wire: message too short")
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrBadType    = errors.New("wire: unknown message type")
	ErrTruncated  = errors.New("wire: truncated payload")
	ErrBadFloat   = errors.New("wire: non-finite coordinate")
	ErrBadValue   = errors.New("wire: invalid field value")
	ErrUnsorted   = errors.New("wire: answer neighbors not in ascending distance order")
)

// CacheRequestSize is the encoded size of a cache request.
const CacheRequestSize = headerSize

// CacheShareSize returns the encoded size of a cache-share message carrying
// n neighbors.
func CacheShareSize(n int) int { return headerSize + pointSize + 4 + n*poiSize }

// EncodeCacheRequest emits a cache request message.
func EncodeCacheRequest() []byte {
	return appendHeader(nil, TypeCacheRequest)
}

// AppendCacheShare appends an encoded cache-share message for pc to dst and
// returns the extended slice. The append-style encoders exist so hot serving
// paths can reuse one encode buffer per connection instead of allocating a
// fresh message each time.
func AppendCacheShare(dst []byte, pc core.PeerCache) []byte {
	dst = appendHeader(dst, TypeCacheShare)
	dst = appendPoint(dst, pc.QueryLoc)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pc.Neighbors)))
	return appendNeighbors(dst, pc.Neighbors)
}

// EncodeCacheShare emits a cache-share message for pc.
func EncodeCacheShare(pc core.PeerCache) []byte {
	return AppendCacheShare(make([]byte, 0, CacheShareSize(len(pc.Neighbors))), pc)
}

func appendNeighbors(dst []byte, neighbors []core.POI) []byte {
	for _, n := range neighbors {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(n.ID))
		dst = appendPoint(dst, n.Loc)
	}
	return dst
}

// Query is a decoded TypeQuery payload: a kNN request under the §3.3
// pruning bounds. The bound fields mirror nn.Bounds without importing it, so
// the codec stays free of algorithm dependencies.
type Query struct {
	ReqID    uint32
	K        int
	Loc      geom.Point
	HasLower bool
	Lower    float64
	HasUpper bool
	Upper    float64
}

// RangeQuery is a decoded TypeRange payload.
type RangeQuery struct {
	ReqID  uint32
	Loc    geom.Point
	Radius float64
}

// Answer is a decoded TypeAnswer payload. Cache carries the certain-region
// metadata (query location + ascending neighbor set); Pages is the server's
// page-access cost for this one query (the PAR metric over the wire).
//
// Unlike a CacheShare, an Answer's neighbor order is authoritative — the
// server emits ascending distance with ties in index order, and the decoder
// validates rather than re-sorts, so a decode/encode round trip preserves
// the server's exact bytes (what the served-vs-in-process oracle test
// compares).
type Answer struct {
	ReqID uint32
	Pages int64
	Cache core.PeerCache
}

// ErrorMsg is a decoded TypeError payload.
type ErrorMsg struct {
	ReqID uint32
	Code  uint32
}

// PeerRequest is a decoded TypePeerRequest payload: a request to relay a
// cache request to every session within Radius of Loc.
type PeerRequest struct {
	ReqID  uint32
	Loc    geom.Point
	Radius float64
}

// ShareReply is a decoded TypeShareReply payload: a probed peer's cache (or
// the explicit statement that it has none).
type ShareReply struct {
	ProbeID uint32
	Has     bool
	Cache   core.PeerCache // zero value when !Has
}

// PeerShares is a decoded TypePeerShares payload: the aggregated result of
// one relay fan-out. PeersInRange counts the sessions probed; Shares holds
// the non-empty caches that came back in time (at most one per peer, already
// validated to be ascending-distance PeerCaches).
type PeerShares struct {
	ReqID        uint32
	PeersInRange int
	Shares       []core.PeerCache
}

// Encoded sizes of the fixed-layout client-server messages.
const (
	PositionSize    = headerSize + pointSize
	QuerySize       = headerSize + 4 + 4 + pointSize + 1 + 8 + 8
	RangeSize       = headerSize + 4 + pointSize + 8
	ErrorSize       = headerSize + 4 + 4
	PeerRequestSize = RangeSize // the same body: request id, location, radius
	PeerProbeSize   = headerSize + 4
)

// AnswerSize returns the encoded size of an answer carrying n neighbors.
func AnswerSize(n int) int { return headerSize + 4 + 8 + pointSize + 4 + n*poiSize }

// ShareReplySize returns the encoded size of a share reply carrying n
// neighbors (n = 0 for the empty-cache reply).
func ShareReplySize(n int) int { return headerSize + 4 + 1 + pointSize + 4 + n*poiSize }

// PeerSharesSize returns the encoded size of an aggregated relay reply whose
// shares carry the given neighbor counts.
func PeerSharesSize(neighborCounts []int) int {
	size := PeerSharesHeaderSize
	for _, n := range neighborCounts {
		size += pointSize + 4 + n*poiSize
	}
	return size
}

// AppendPosition appends an encoded position update to dst.
func AppendPosition(dst []byte, p geom.Point) []byte {
	return appendPoint(appendHeader(dst, TypePosition), p)
}

// EncodePosition emits a position update.
func EncodePosition(p geom.Point) []byte {
	return AppendPosition(make([]byte, 0, PositionSize), p)
}

// Bound flags of the Query layout.
const (
	queryFlagLower byte = 1 << 0
	queryFlagUpper byte = 1 << 1
)

// AppendQuery appends an encoded kNN request to dst. Unset bounds are
// encoded as zero bits so the encoding is canonical.
func AppendQuery(dst []byte, q Query) []byte {
	buf := appendHeader(dst, TypeQuery)
	buf = binary.LittleEndian.AppendUint32(buf, q.ReqID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(q.K))
	buf = appendPoint(buf, q.Loc)
	var flags byte
	var lower, upper float64
	if q.HasLower {
		flags |= queryFlagLower
		lower = q.Lower
	}
	if q.HasUpper {
		flags |= queryFlagUpper
		upper = q.Upper
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(lower))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(upper))
	return buf
}

// EncodeQuery emits a kNN request (see AppendQuery).
func EncodeQuery(q Query) []byte {
	return AppendQuery(make([]byte, 0, QuerySize), q)
}

// EncodeRange emits a range request.
func EncodeRange(r RangeQuery) []byte {
	buf := appendHeader(make([]byte, 0, RangeSize), TypeRange)
	buf = binary.LittleEndian.AppendUint32(buf, r.ReqID)
	buf = appendPoint(buf, r.Loc)
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Radius))
}

// AppendAnswer appends an encoded served answer to dst and returns the
// extended slice. The cache's neighbors must already be in ascending
// distance order from the cache's query location (which is how every server
// path produces them); Decode rejects anything else.
func AppendAnswer(dst []byte, a Answer) []byte {
	dst = appendHeader(dst, TypeAnswer)
	dst = binary.LittleEndian.AppendUint32(dst, a.ReqID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(a.Pages))
	dst = appendPoint(dst, a.Cache.QueryLoc)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a.Cache.Neighbors)))
	return appendNeighbors(dst, a.Cache.Neighbors)
}

// EncodeAnswer emits a served answer (see AppendAnswer).
func EncodeAnswer(a Answer) []byte {
	return AppendAnswer(make([]byte, 0, AnswerSize(len(a.Cache.Neighbors))), a)
}

// AppendError appends an encoded per-request failure reply to dst.
func AppendError(dst []byte, e ErrorMsg) []byte {
	dst = appendHeader(dst, TypeError)
	dst = binary.LittleEndian.AppendUint32(dst, e.ReqID)
	return binary.LittleEndian.AppendUint32(dst, e.Code)
}

// EncodeError emits a per-request failure reply.
func EncodeError(e ErrorMsg) []byte {
	return AppendError(make([]byte, 0, ErrorSize), e)
}

// AppendPeerRequest appends an encoded relay request to dst.
func AppendPeerRequest(dst []byte, r PeerRequest) []byte {
	buf := appendHeader(dst, TypePeerRequest)
	buf = binary.LittleEndian.AppendUint32(buf, r.ReqID)
	buf = appendPoint(buf, r.Loc)
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Radius))
}

// EncodePeerRequest emits a relay request (see AppendPeerRequest).
func EncodePeerRequest(r PeerRequest) []byte {
	return AppendPeerRequest(make([]byte, 0, PeerRequestSize), r)
}

// AppendPeerProbe appends a relayed cache request carrying the probe id the
// peer must echo in its ShareReply.
func AppendPeerProbe(dst []byte, probeID uint32) []byte {
	return binary.LittleEndian.AppendUint32(appendHeader(dst, TypePeerProbe), probeID)
}

// EncodePeerProbe emits a relayed cache request (see AppendPeerProbe).
func EncodePeerProbe(probeID uint32) []byte {
	return AppendPeerProbe(make([]byte, 0, PeerProbeSize), probeID)
}

// AppendShareReply appends an encoded probe reply to dst. When has is false
// the cache is ignored and the canonical empty reply is emitted.
func AppendShareReply(dst []byte, probeID uint32, has bool, pc core.PeerCache) []byte {
	dst = appendHeader(dst, TypeShareReply)
	dst = binary.LittleEndian.AppendUint32(dst, probeID)
	if !has || len(pc.Neighbors) == 0 {
		dst = append(dst, 0)
		dst = appendPoint(dst, geom.Point{})
		return binary.LittleEndian.AppendUint32(dst, 0)
	}
	dst = append(dst, 1)
	dst = appendPoint(dst, pc.QueryLoc)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pc.Neighbors)))
	return appendNeighbors(dst, pc.Neighbors)
}

// EncodeShareReply emits a probe reply (see AppendShareReply).
func EncodeShareReply(probeID uint32, has bool, pc core.PeerCache) []byte {
	return AppendShareReply(make([]byte, 0, ShareReplySize(len(pc.Neighbors))), probeID, has, pc)
}

// AppendPeerShares appends an encoded aggregated relay reply to dst. Every
// share must be a non-empty ascending-distance PeerCache (which is the only
// kind the relay collects); Decode rejects anything else.
func AppendPeerShares(dst []byte, ps PeerShares) []byte {
	dst = AppendPeerSharesHeader(dst, ps.ReqID, ps.PeersInRange, len(ps.Shares))
	for _, pc := range ps.Shares {
		dst = appendPoint(dst, pc.QueryLoc)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pc.Neighbors)))
		dst = appendNeighbors(dst, pc.Neighbors)
	}
	return dst
}

// PeerSharesHeaderSize is the encoded size of the fixed prefix of a
// PeerShares message (AppendPeerSharesHeader): everything before the first
// share block.
const PeerSharesHeaderSize = headerSize + 4 + 4 + 4

// AppendPeerSharesHeader appends the fixed prefix of an aggregated relay
// reply — request id, peers in range, share count. The message is that
// prefix followed by the share blocks, so a relay holding validated wire
// blocks (ShareReplyBlock) completes it by appending them unchanged.
func AppendPeerSharesHeader(dst []byte, reqID uint32, peersInRange, shares int) []byte {
	dst = appendHeader(dst, TypePeerShares)
	dst = binary.LittleEndian.AppendUint32(dst, reqID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(peersInRange))
	return binary.LittleEndian.AppendUint32(dst, uint32(shares))
}

// EncodePeerShares emits an aggregated relay reply (see AppendPeerShares).
func EncodePeerShares(ps PeerShares) []byte {
	return AppendPeerShares(nil, ps)
}

func appendHeader(dst []byte, typ byte) []byte {
	return append(dst, magic[0], magic[1], magic[2], magic[3], version, typ)
}

func appendPoint(dst []byte, p geom.Point) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.X))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Y))
}

func getPoint(buf []byte, off int) geom.Point {
	return geom.Point{
		X: math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8:])),
	}
}

// Message is a decoded wire message.
type Message struct {
	Type    byte
	Cache   core.PeerCache // valid when Type == TypeCacheShare
	Pos     geom.Point     // valid when Type == TypePosition
	Query   Query          // valid when Type == TypeQuery
	Range   RangeQuery     // valid when Type == TypeRange
	Answer  Answer         // valid when Type == TypeAnswer
	Err     ErrorMsg       // valid when Type == TypeError
	PeerReq PeerRequest    // valid when Type == TypePeerRequest
	ProbeID uint32         // valid when Type == TypePeerProbe
	Share   ShareReply     // valid when Type == TypeShareReply
	Shares  PeerShares     // valid when Type == TypePeerShares
}

// PeekType validates the message header and returns the message type
// without decoding the payload. It lets a receiver that wants scratch-based
// decoding for one hot type (see DecodePeerSharesInto) dispatch before
// paying for a generic Decode.
func PeekType(buf []byte) (byte, error) {
	if len(buf) < headerSize {
		return 0, ErrTooShort
	}
	if [4]byte(buf[:4]) != magic {
		return 0, ErrBadMagic
	}
	if buf[4] != version {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, buf[4])
	}
	return buf[5], nil
}

// Decode parses a wire message, validating structure and coordinates.
func Decode(buf []byte) (Message, error) {
	typ, err := PeekType(buf)
	if err != nil {
		return Message{}, err
	}
	switch typ {
	case TypeCacheRequest:
		return Message{Type: TypeCacheRequest}, nil
	case TypeCacheShare:
		return decodeCacheShare(buf)
	case TypePosition:
		return decodePosition(buf)
	case TypeQuery:
		return decodeQuery(buf)
	case TypeRange:
		return decodeRange(buf)
	case TypeAnswer:
		return decodeAnswer(buf)
	case TypeError:
		return decodeError(buf)
	case TypePeerRequest:
		return decodePeerRequest(buf)
	case TypePeerProbe:
		return decodePeerProbe(buf)
	case TypeShareReply:
		return decodeShareReply(buf)
	case TypePeerShares:
		return decodePeerShares(buf)
	default:
		return Message{}, fmt.Errorf("%w: %d", ErrBadType, buf[5])
	}
}

func decodePosition(buf []byte) (Message, error) {
	if len(buf) != PositionSize {
		return Message{}, ErrTruncated
	}
	p := getPoint(buf, headerSize)
	if !finite(p) {
		return Message{}, ErrBadFloat
	}
	return Message{Type: TypePosition, Pos: p}, nil
}

func decodeQuery(buf []byte) (Message, error) {
	if len(buf) != QuerySize {
		return Message{}, ErrTruncated
	}
	off := headerSize
	q := Query{ReqID: binary.LittleEndian.Uint32(buf[off:])}
	k := binary.LittleEndian.Uint32(buf[off+4:])
	if k < 1 || k > MaxQueryK {
		return Message{}, fmt.Errorf("%w: k=%d", ErrBadValue, k)
	}
	q.K = int(k)
	q.Loc = getPoint(buf, off+8)
	if !finite(q.Loc) {
		return Message{}, ErrBadFloat
	}
	off += 8 + pointSize
	flags := buf[off]
	if flags&^(queryFlagLower|queryFlagUpper) != 0 {
		return Message{}, fmt.Errorf("%w: bound flags %#x", ErrBadValue, flags)
	}
	lowerBits := binary.LittleEndian.Uint64(buf[off+1:])
	upperBits := binary.LittleEndian.Uint64(buf[off+9:])
	if flags&queryFlagLower != 0 {
		q.HasLower = true
		q.Lower = math.Float64frombits(lowerBits)
		if math.IsNaN(q.Lower) || math.IsInf(q.Lower, 0) {
			return Message{}, ErrBadFloat
		}
	} else if lowerBits != 0 {
		// Canonical encoding: an unset bound must be zero bits.
		return Message{}, fmt.Errorf("%w: lower bound set without flag", ErrBadValue)
	}
	if flags&queryFlagUpper != 0 {
		q.HasUpper = true
		q.Upper = math.Float64frombits(upperBits)
		if math.IsNaN(q.Upper) || math.IsInf(q.Upper, 0) {
			return Message{}, ErrBadFloat
		}
	} else if upperBits != 0 {
		return Message{}, fmt.Errorf("%w: upper bound set without flag", ErrBadValue)
	}
	return Message{Type: TypeQuery, Query: q}, nil
}

// decodeRadiusRequest parses the request id + location + radius body that
// Range and PeerRequest share.
func decodeRadiusRequest(buf []byte) (RangeQuery, error) {
	if len(buf) != RangeSize {
		return RangeQuery{}, ErrTruncated
	}
	r := RangeQuery{ReqID: binary.LittleEndian.Uint32(buf[headerSize:])}
	r.Loc = getPoint(buf, headerSize+4)
	if !finite(r.Loc) {
		return RangeQuery{}, ErrBadFloat
	}
	r.Radius = math.Float64frombits(binary.LittleEndian.Uint64(buf[headerSize+4+pointSize:]))
	if math.IsNaN(r.Radius) || math.IsInf(r.Radius, 0) {
		return RangeQuery{}, ErrBadFloat
	}
	if r.Radius < 0 || math.Signbit(r.Radius) {
		// Negative zero is excluded too: encoding must be canonical.
		return RangeQuery{}, fmt.Errorf("%w: radius %g", ErrBadValue, r.Radius)
	}
	return r, nil
}

func decodeRange(buf []byte) (Message, error) {
	r, err := decodeRadiusRequest(buf)
	if err != nil {
		return Message{}, err
	}
	return Message{Type: TypeRange, Range: r}, nil
}

func decodeAnswer(buf []byte) (Message, error) {
	if len(buf) < AnswerSize(0) {
		return Message{}, ErrTruncated
	}
	off := headerSize
	a := Answer{ReqID: binary.LittleEndian.Uint32(buf[off:])}
	a.Pages = int64(binary.LittleEndian.Uint64(buf[off+4:]))
	if a.Pages < 0 {
		return Message{}, fmt.Errorf("%w: negative page count", ErrBadValue)
	}
	loc := getPoint(buf, off+12)
	if !finite(loc) {
		return Message{}, ErrBadFloat
	}
	off += 12 + pointSize
	n := int(binary.LittleEndian.Uint32(buf[off:]))
	if len(buf) != AnswerSize(n) {
		return Message{}, ErrTruncated
	}
	// An answer's length is bounded by the exact-size check above (and by the
	// k its Query may carry), not by the relayed-share cap.
	neighbors, err := scanNeighbors(buf, off+4, loc, n, true, make([]core.POI, 0, n))
	if err != nil {
		return Message{}, err
	}
	a.Cache = core.PeerCache{QueryLoc: loc, Neighbors: neighbors}
	return Message{Type: TypeAnswer, Answer: a}, nil
}

func decodeError(buf []byte) (Message, error) {
	if len(buf) != ErrorSize {
		return Message{}, ErrTruncated
	}
	return Message{Type: TypeError, Err: ErrorMsg{
		ReqID: binary.LittleEndian.Uint32(buf[headerSize:]),
		Code:  binary.LittleEndian.Uint32(buf[headerSize+4:]),
	}}, nil
}

func decodePeerRequest(buf []byte) (Message, error) {
	r, err := decodeRadiusRequest(buf)
	if err != nil {
		return Message{}, err
	}
	return Message{Type: TypePeerRequest, PeerReq: PeerRequest(r)}, nil
}

func decodePeerProbe(buf []byte) (Message, error) {
	if len(buf) != PeerProbeSize {
		return Message{}, ErrTruncated
	}
	return Message{Type: TypePeerProbe, ProbeID: binary.LittleEndian.Uint32(buf[headerSize:])}, nil
}

// scanShare walks one loc + count + neighbors share block at off, validating
// finiteness, the neighbor cap, and the ascending-distance invariant. It
// returns the block's query location, its neighbor count, and the offset
// past it. With keep set the neighbors are also appended to arena (returned
// grown); without it the walk only validates, which is all a relay that
// forwards the block's bytes needs. Single validation path for every
// relayed-share decoder and for ShareReplyBlock; a served Answer, whose
// header differs, runs the same neighbor walk (scanNeighbors).
func scanShare(buf []byte, off int, keep bool, arena []core.POI) (geom.Point, int, int, []core.POI, error) {
	if len(buf) < off+pointSize+4 {
		return geom.Point{}, 0, 0, arena, ErrTruncated
	}
	loc := getPoint(buf, off)
	if !finite(loc) {
		return geom.Point{}, 0, 0, arena, ErrBadFloat
	}
	n := int(binary.LittleEndian.Uint32(buf[off+pointSize:]))
	if n > MaxShareNeighbors {
		return geom.Point{}, 0, 0, arena, fmt.Errorf("%w: share carries %d neighbors", ErrBadValue, n)
	}
	off += pointSize + 4
	if len(buf) < off+n*poiSize {
		return geom.Point{}, 0, 0, arena, ErrTruncated
	}
	arena, err := scanNeighbors(buf, off, loc, n, keep, arena)
	if err != nil {
		return geom.Point{}, 0, 0, arena, err
	}
	return loc, n, off + n*poiSize, arena, nil
}

// scanNeighbors walks the n neighbors at off (the caller has checked that buf
// holds them), validating finiteness and non-decreasing distance from loc;
// with keep set they are appended to arena, which is returned.
func scanNeighbors(buf []byte, off int, loc geom.Point, n int, keep bool, arena []core.POI) ([]core.POI, error) {
	if keep {
		arena = slices.Grow(arena, n)
	}
	prev := -1.0
	for i := 0; i < n; i++ {
		p := getPoint(buf, off+8)
		if !finite(p) {
			return arena, ErrBadFloat
		}
		// A served answer's ascending order is authoritative (ties in the
		// server's index order) and relayed shares descend from answers;
		// validating instead of re-sorting keeps the encoding canonical and
		// the PeerCache invariant intact.
		d2 := loc.Dist2(p)
		if d2 < prev {
			return arena, ErrUnsorted
		}
		prev = d2
		if keep {
			arena = append(arena, core.POI{ID: int64(binary.LittleEndian.Uint64(buf[off:])), Loc: p})
		}
		off += poiSize
	}
	return arena, nil
}

// decodeShareInto is scanShare keeping the neighbors: they are appended to
// arena and the returned cache's Neighbors alias the appended region (capped,
// so appending to the arena later cannot write through them).
func decodeShareInto(buf []byte, off int, arena []core.POI) (core.PeerCache, int, []core.POI, error) {
	start := len(arena)
	loc, _, next, arena, err := scanShare(buf, off, true, arena)
	if err != nil {
		return core.PeerCache{}, 0, arena, err
	}
	end := len(arena)
	return core.PeerCache{QueryLoc: loc, Neighbors: arena[start:end:end]}, next, arena, nil
}

// shareReplyBlockOff is where a ShareReply's share block starts: past the
// header, the probe id and the has-cache flag.
const shareReplyBlockOff = headerSize + 4 + 1

// scanShareReply validates a ShareReply and returns it with its neighbor
// count (0 for the canonical empty reply). With keep unset the cache is
// validated but not materialised (r.Cache stays zero). Decode and
// ShareReplyBlock both run it, so they accept exactly the same messages.
func scanShareReply(buf []byte, keep bool) (ShareReply, int, error) {
	if len(buf) < ShareReplySize(0) {
		return ShareReply{}, 0, ErrTruncated
	}
	r := ShareReply{ProbeID: binary.LittleEndian.Uint32(buf[headerSize:])}
	switch buf[headerSize+4] {
	case 0:
		// Canonical empty reply: zero location bits, zero neighbors.
		if len(buf) != ShareReplySize(0) {
			return ShareReply{}, 0, ErrTruncated
		}
		for _, b := range buf[shareReplyBlockOff:] {
			if b != 0 {
				return ShareReply{}, 0, fmt.Errorf("%w: empty share reply carries data", ErrBadValue)
			}
		}
		return r, 0, nil
	case 1:
		loc, n, off, neighbors, err := scanShare(buf, shareReplyBlockOff, keep, nil)
		if err != nil {
			return ShareReply{}, 0, err
		}
		if off != len(buf) {
			return ShareReply{}, 0, ErrTruncated
		}
		if n == 0 {
			return ShareReply{}, 0, fmt.Errorf("%w: share reply flagged non-empty with 0 neighbors", ErrBadValue)
		}
		r.Has = true
		if keep {
			r.Cache = core.PeerCache{QueryLoc: loc, Neighbors: neighbors[:n:n]}
		}
		return r, n, nil
	default:
		return ShareReply{}, 0, fmt.Errorf("%w: share flag %d", ErrBadValue, buf[headerSize+4])
	}
}

func decodeShareReply(buf []byte) (Message, error) {
	r, _, err := scanShareReply(buf, true)
	if err != nil {
		return Message{}, err
	}
	return Message{Type: TypeShareReply, Share: r}, nil
}

// ShareReplyBlock validates a TypeShareReply message exactly as Decode does
// — both run scanShareReply — but returns the share as wire bytes instead of
// a decoded cache: block is the message's loc + count + neighbors region,
// which is byte for byte the block AppendPeerShares emits for the same cache
// (the encoding is canonical), so a relay forwards it behind
// AppendPeerSharesHeader without decoding or re-encoding. block aliases buf
// and is nil for the empty reply (neighbors == 0).
func ShareReplyBlock(buf []byte) (probeID uint32, neighbors int, block []byte, err error) {
	typ, err := PeekType(buf)
	if err != nil {
		return 0, 0, nil, err
	}
	if typ != TypeShareReply {
		return 0, 0, nil, fmt.Errorf("%w: %d (want ShareReply)", ErrBadType, typ)
	}
	r, n, err := scanShareReply(buf, false)
	if err != nil {
		return 0, 0, nil, err
	}
	if n > 0 {
		block = buf[shareReplyBlockOff:]
	}
	return r.ProbeID, n, block, nil
}

func decodePeerShares(buf []byte) (Message, error) {
	ps, err := DecodePeerSharesInto(buf, new(SharesScratch))
	if err != nil {
		return Message{}, err
	}
	return Message{Type: TypePeerShares, Shares: ps}, nil
}

// SharesScratch is reusable storage for DecodePeerSharesInto: the share
// slice and one POI arena backing every share's Neighbors. A receiver that
// decodes PeerShares in a loop keeps one scratch and stops allocating once
// it has grown to the working-set size.
type SharesScratch struct {
	shares []core.PeerCache
	arena  []core.POI
}

// DecodePeerSharesInto parses a TypePeerShares message like Decode, but
// decodes into sc's reusable storage instead of fresh allocations. The
// returned PeerShares (its Shares slice and every Neighbors slice) aliases
// sc and is valid only until the next call with the same scratch — callers
// that retain shares must copy them (which every cache-storing path in this
// repo already does). Decode is this function over a fresh scratch, so the
// two accept exactly the same messages.
func DecodePeerSharesInto(buf []byte, sc *SharesScratch) (PeerShares, error) {
	typ, err := PeekType(buf)
	if err != nil {
		return PeerShares{}, err
	}
	if typ != TypePeerShares {
		return PeerShares{}, fmt.Errorf("%w: %d (want PeerShares)", ErrBadType, typ)
	}
	if len(buf) < PeerSharesHeaderSize {
		return PeerShares{}, ErrTruncated
	}
	ps := PeerShares{
		ReqID:        binary.LittleEndian.Uint32(buf[headerSize:]),
		PeersInRange: int(binary.LittleEndian.Uint32(buf[headerSize+4:])),
	}
	m := int(binary.LittleEndian.Uint32(buf[headerSize+8:]))
	// Each share block is at least pointSize+4 bytes, so m is bounded by the
	// message length before anything is allocated.
	if m > (len(buf)-PeerSharesHeaderSize)/(pointSize+4) {
		return PeerShares{}, ErrTruncated
	}
	shares := sc.shares[:0]
	arena := sc.arena[:0]
	off := PeerSharesHeaderSize
	for i := 0; i < m; i++ {
		var pc core.PeerCache
		pc, off, arena, err = decodeShareInto(buf, off, arena)
		if err != nil {
			sc.arena = arena
			return PeerShares{}, err
		}
		if len(pc.Neighbors) == 0 {
			sc.arena = arena
			return PeerShares{}, fmt.Errorf("%w: relayed share with 0 neighbors", ErrBadValue)
		}
		shares = append(shares, pc)
	}
	sc.shares, sc.arena = shares, arena
	if off != len(buf) {
		return PeerShares{}, ErrTruncated
	}
	if m > 0 {
		ps.Shares = shares
	}
	return ps, nil
}

func decodeCacheShare(buf []byte) (Message, error) {
	if len(buf) < headerSize+pointSize+4 {
		return Message{}, ErrTruncated
	}
	loc := getPoint(buf, headerSize)
	if !finite(loc) {
		return Message{}, ErrBadFloat
	}
	n := int(binary.LittleEndian.Uint32(buf[headerSize+pointSize:]))
	if len(buf) != CacheShareSize(n) {
		return Message{}, ErrTruncated
	}
	neighbors := make([]core.POI, n)
	off := headerSize + pointSize + 4
	for i := 0; i < n; i++ {
		id := int64(binary.LittleEndian.Uint64(buf[off:]))
		p := getPoint(buf, off+8)
		if !finite(p) {
			return Message{}, ErrBadFloat
		}
		neighbors[i] = core.POI{ID: id, Loc: p}
		off += poiSize
	}
	// Re-sorting on decode keeps the PeerCache invariant even against a
	// peer that serialized out of order.
	return Message{
		Type:  TypeCacheShare,
		Cache: core.NewPeerCache(loc, neighbors),
	}, nil
}

func finite(p geom.Point) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}
