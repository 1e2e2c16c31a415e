package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/geom"
)

// The POI store is the server's on-disk data set: the POI points in their
// canonical order, plus the R*-tree fan-out they are meant to be indexed
// with. A POI's ID is its row — its item number in the index, the rule
// cache.Table enforces on every simulated POI set — so the file holds no ID
// column. Storing the points and fan-out (rather than a serialized tree)
// makes the boot-time index bit-identical to the in-process
// sim.NewServerModule tree packed from the same inputs, which is what lets
// the serve-vs-in-process oracle test demand byte equality of answers and
// page counts. Reading is the smaller half of a boot: /v1/stats reads
// store_read_ms 1.1–1.7 against index_build_ms 8.5–13.7 for a 50,000-POI
// store on a 2-vCPU host.
//
// Layout (little-endian), one spelling per store:
//
//	header  magic "SENP" (u32), version (u32), fanout (u32), count (u64),
//	        bounds MinX MinY MaxX MaxY (4 × f64)
//	body    count points in row order, 16 bytes each (x f64, y f64)
const (
	storeMagic      = uint32(0x504E4553) // "SENP"
	storeVersion    = uint32(2)
	storeHeaderSize = 52
	storePointSize  = 16
	// storeReadBuf is readStore's one buffer, 256 points a read: the
	// previous format's 4 KiB. 16 and 64 KiB buffers showed no resolved
	// difference in store_read_ms or resident memory over the boots made.
	storeReadBuf = 4 << 10
)

// StoreInfo describes an opened POI store.
type StoreInfo struct {
	Count  int
	Fanout int
	Bounds geom.Rect
}

// WriteStore writes the POI set to path as a store file, in one write.
// Every POI's ID must be its row. fanout is the R*-tree branching factor
// servers must index with; bounds is the area the POIs were drawn from
// (served to clients for movement and query generation).
func WriteStore(path string, pois []core.POI, fanout int, bounds geom.Rect) (err error) {
	b, err := encodeStore(pois, fanout, bounds)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	defer func() {
		// A close failure after a clean write is still a failed write: the
		// bytes may never have reached the device.
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err := f.Write(b); err != nil {
		return err
	}
	return f.Sync()
}

// encodeStore returns the bytes WriteStore writes.
func encodeStore(pois []core.POI, fanout int, bounds geom.Rect) ([]byte, error) {
	if fanout < 4 {
		return nil, fmt.Errorf("serve: store fanout %d, want >= 4", fanout)
	}
	b := make([]byte, storeHeaderSize, storeHeaderSize+storePointSize*len(pois))
	binary.LittleEndian.PutUint32(b[0:], storeMagic)
	binary.LittleEndian.PutUint32(b[4:], storeVersion)
	binary.LittleEndian.PutUint32(b[8:], uint32(fanout))
	binary.LittleEndian.PutUint64(b[12:], uint64(len(pois)))
	for i, v := range []float64{bounds.Min.X, bounds.Min.Y, bounds.Max.X, bounds.Max.Y} {
		binary.LittleEndian.PutUint64(b[20+8*i:], math.Float64bits(v))
	}
	for row, p := range pois {
		if p.ID != int64(row) {
			return nil, fmt.Errorf("serve: POI at row %d has ID %d; a store's POI IDs are their rows", row, p.ID)
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Loc.X))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Loc.Y))
	}
	return b, nil
}

// ReadStore opens a store file and returns its metadata and POIs in row
// order.
func ReadStore(path string) (StoreInfo, []core.POI, error) {
	f, err := os.Open(path)
	if err != nil {
		return StoreInfo{}, nil, fmt.Errorf("serve: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return StoreInfo{}, nil, fmt.Errorf("serve: %w", err)
	}
	return readStore(f, st.Size(), path)
}

// readStore decodes a store of size bytes read from f; path names it in
// errors. It reads through one storeReadBuf buffer, so the body is never
// held twice, and a read that fails fails the whole load.
func readStore(f io.Reader, size int64, path string) (StoreInfo, []core.POI, error) {
	if size < storeHeaderSize {
		return StoreInfo{}, nil, fmt.Errorf("serve: %s: size %d, shorter than the %d-byte header", path, size, storeHeaderSize)
	}
	buf := make([]byte, storeReadBuf)
	if _, err := io.ReadFull(f, buf[:storeHeaderSize]); err != nil {
		return StoreInfo{}, nil, fmt.Errorf("serve: %s: %w", path, err)
	}
	if got := binary.LittleEndian.Uint32(buf[0:]); got != storeMagic {
		return StoreInfo{}, nil, fmt.Errorf("serve: %s: bad store magic %#x", path, got)
	}
	if got := binary.LittleEndian.Uint32(buf[4:]); got != storeVersion {
		return StoreInfo{}, nil, fmt.Errorf("serve: %s: store version %d, this build reads version %d: write it again with senn-serverd -mkstore",
			path, got, storeVersion)
	}
	info := StoreInfo{Fanout: int(binary.LittleEndian.Uint32(buf[8:]))}
	if info.Fanout < 4 {
		return StoreInfo{}, nil, fmt.Errorf("serve: %s: corrupt fanout %d", path, info.Fanout)
	}
	count := binary.LittleEndian.Uint64(buf[12:])
	if body := size - storeHeaderSize; body%storePointSize != 0 || uint64(body/storePointSize) != count {
		return StoreInfo{}, nil, fmt.Errorf("serve: %s: size %d, want %d-byte header + %d bytes per POI for %d POIs",
			path, size, storeHeaderSize, storePointSize, count)
	}
	info.Count = int(count)
	coords := make([]float64, 4)
	for i := range coords {
		coords[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[20+8*i:]))
		if math.IsNaN(coords[i]) || math.IsInf(coords[i], 0) {
			return StoreInfo{}, nil, fmt.Errorf("serve: %s: non-finite bounds", path)
		}
	}
	info.Bounds = geom.Rect{Min: geom.Pt(coords[0], coords[1]), Max: geom.Pt(coords[2], coords[3])}
	if info.Bounds.Max.X < info.Bounds.Min.X || info.Bounds.Max.Y < info.Bounds.Min.Y {
		return StoreInfo{}, nil, fmt.Errorf("serve: %s: inverted bounds", path)
	}

	pois := make([]core.POI, info.Count)
	for row := 0; row < info.Count; {
		chunk := buf[:storePointSize*min(info.Count-row, storeReadBuf/storePointSize)]
		if _, err := io.ReadFull(f, chunk); err != nil {
			return StoreInfo{}, nil, fmt.Errorf("serve: %s: %w", path, err)
		}
		for off := 0; off < len(chunk); off += storePointSize {
			x := math.Float64frombits(binary.LittleEndian.Uint64(chunk[off:]))
			y := math.Float64frombits(binary.LittleEndian.Uint64(chunk[off+8:]))
			if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
				return StoreInfo{}, nil, fmt.Errorf("serve: %s: non-finite POI at row %d", path, row)
			}
			pois[row] = core.POI{ID: int64(row), Loc: geom.Point{X: x, Y: y}}
			row++
		}
	}
	return info, pois, nil
}
