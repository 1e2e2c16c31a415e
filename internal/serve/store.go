package serve

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pagestore"
)

// The POI store is the server's on-disk data set: the POIs in their
// canonical order — a POI's row is its item number in the index — plus the
// R*-tree fan-out they are meant to be indexed with, laid out on pagestore's
// fixed 4 KiB pages. Storing the POI table and fan-out (rather than a
// serialized tree) makes the boot-time index bit-identical to the in-process
// sim.NewServerModule tree packed from the same inputs — which is what lets
// the serve-vs-in-process oracle test demand byte equality of answers and
// page counts — and packing 50,000 POIs takes less time than reading them.
//
// Layout (little-endian):
//
//	page 0          header: magic "SENP" (u32), version (u32), fanout (u32),
//	                count (u64), bounds MinX MinY MaxX MaxY (4 × f64)
//	pages 1..N      POI records, 24 bytes each (id i64, x f64, y f64),
//	                poisPerPage per page, zero-padded tail
const (
	storeMagic    = uint32(0x504E4553) // "SENP"
	storeVersion  = uint32(1)
	poiRecordSize = 24
	poisPerPage   = pagestore.PageSize / poiRecordSize
)

// maxStorePOIs caps what ReadStore will load (a format sanity bound, far
// above any store this repo generates).
const maxStorePOIs = 1 << 28

// StoreInfo describes an opened POI store.
type StoreInfo struct {
	Count  int
	Fanout int
	Bounds geom.Rect
}

// WriteStore writes the POI set to path as a page-aligned store file.
// fanout is the R*-tree branching factor servers must index with; bounds is
// the area the POIs were drawn from (served to clients for movement and
// query generation).
func WriteStore(path string, pois []core.POI, fanout int, bounds geom.Rect) (err error) {
	if fanout < 4 {
		return fmt.Errorf("serve: store fanout %d, want >= 4", fanout)
	}
	pf, err := pagestore.CreatePageFile(path)
	if err != nil {
		return err
	}
	defer func() {
		// A close failure after a clean write is still a failed write: the
		// pages may never have reached the device.
		if cerr := pf.Close(); err == nil {
			err = cerr
		}
	}()

	header := make([]byte, pagestore.PageSize)
	binary.LittleEndian.PutUint32(header[0:], storeMagic)
	binary.LittleEndian.PutUint32(header[4:], storeVersion)
	binary.LittleEndian.PutUint32(header[8:], uint32(fanout))
	binary.LittleEndian.PutUint64(header[12:], uint64(len(pois)))
	for i, v := range []float64{bounds.Min.X, bounds.Min.Y, bounds.Max.X, bounds.Max.Y} {
		binary.LittleEndian.PutUint64(header[20+8*i:], math.Float64bits(v))
	}
	if _, err := pf.AppendPage(header); err != nil {
		return err
	}

	page := make([]byte, pagestore.PageSize)
	for start := 0; start < len(pois); start += poisPerPage {
		clear(page)
		end := start + poisPerPage
		if end > len(pois) {
			end = len(pois)
		}
		off := 0
		for _, p := range pois[start:end] {
			binary.LittleEndian.PutUint64(page[off:], uint64(p.ID))
			binary.LittleEndian.PutUint64(page[off+8:], math.Float64bits(p.Loc.X))
			binary.LittleEndian.PutUint64(page[off+16:], math.Float64bits(p.Loc.Y))
			off += poiRecordSize
		}
		if _, err := pf.AppendPage(page); err != nil {
			return err
		}
	}
	return pf.Sync()
}

// ReadStore opens a store file and returns its metadata and POIs in stored
// order.
func ReadStore(path string) (StoreInfo, []core.POI, error) {
	pf, err := pagestore.OpenPageFile(path)
	if err != nil {
		return StoreInfo{}, nil, err
	}
	//simvet:discard — read-only open; there is nothing to flush and the pages are already copied out
	defer pf.Close()
	if pf.NumPages() == 0 {
		return StoreInfo{}, nil, fmt.Errorf("serve: %s: empty store file", path)
	}

	buf := make([]byte, pagestore.PageSize)
	if err := pf.ReadPage(0, buf); err != nil {
		return StoreInfo{}, nil, err
	}
	if got := binary.LittleEndian.Uint32(buf[0:]); got != storeMagic {
		return StoreInfo{}, nil, fmt.Errorf("serve: %s: bad store magic %#x", path, got)
	}
	if got := binary.LittleEndian.Uint32(buf[4:]); got != storeVersion {
		return StoreInfo{}, nil, fmt.Errorf("serve: %s: unsupported store version %d", path, got)
	}
	info := StoreInfo{
		Fanout: int(binary.LittleEndian.Uint32(buf[8:])),
		Count:  int(binary.LittleEndian.Uint64(buf[12:])),
	}
	if info.Fanout < 4 {
		return StoreInfo{}, nil, fmt.Errorf("serve: %s: corrupt fanout %d", path, info.Fanout)
	}
	if info.Count < 0 || info.Count > maxStorePOIs {
		return StoreInfo{}, nil, fmt.Errorf("serve: %s: corrupt POI count %d", path, info.Count)
	}
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

	wantPages := 1 + (info.Count+poisPerPage-1)/poisPerPage
	if pf.NumPages() != wantPages {
		return StoreInfo{}, nil, fmt.Errorf("serve: %s: %d pages, want %d for %d POIs",
			path, pf.NumPages(), wantPages, info.Count)
	}

	pois := make([]core.POI, 0, info.Count)
	for pageIdx := 1; pageIdx < wantPages; pageIdx++ {
		if err := pf.ReadPage(pagestore.PageID(pageIdx), buf); err != nil {
			return StoreInfo{}, nil, err
		}
		n := poisPerPage
		if remaining := info.Count - len(pois); remaining < n {
			n = remaining
		}
		off := 0
		for i := 0; i < n; i++ {
			p := core.POI{
				ID: int64(binary.LittleEndian.Uint64(buf[off:])),
				Loc: geom.Point{
					X: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8:])),
					Y: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+16:])),
				},
			}
			if math.IsNaN(p.Loc.X) || math.IsInf(p.Loc.X, 0) ||
				math.IsNaN(p.Loc.Y) || math.IsInf(p.Loc.Y, 0) {
				return StoreInfo{}, nil, fmt.Errorf("serve: %s: non-finite POI at index %d", path, len(pois))
			}
			pois = append(pois, p)
			off += poiRecordSize
		}
	}
	return info, pois, nil
}
