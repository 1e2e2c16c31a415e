package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// minMaxDist is the MINMAXDIST metric of Roussopoulos et al.: the
// smallest upper bound on the distance from p to the nearest object inside
// an MBR that is known to touch all of its faces. For each axis, assume the
// nearest object lies on the closer face along that axis and as far as
// possible along the others; the minimum over axes is the guarantee. The
// depth-first referee (dfVisit) uses it to discard sibling MBRs that provably
// cannot contain the nearest neighbor.
func minMaxDist(r geom.Rect, p geom.Point) float64 {
	if r.IsEmpty() {
		return 0
	}
	// rm: the closer face coordinate per axis; rM: the farther face.
	rmX := r.Min.X
	if p.X > (r.Min.X+r.Max.X)/2 {
		rmX = r.Max.X
	}
	rmY := r.Min.Y
	if p.Y > (r.Min.Y+r.Max.Y)/2 {
		rmY = r.Max.Y
	}
	rMX := r.Max.X
	if p.X >= (r.Min.X+r.Max.X)/2 {
		rMX = r.Min.X
	}
	rMY := r.Max.Y
	if p.Y >= (r.Min.Y+r.Max.Y)/2 {
		rMY = r.Min.Y
	}
	dx, dy := p.X-rmX, p.Y-rmY
	fx, fy := p.X-rMX, p.Y-rMY
	viaX := dx*dx + fy*fy // nearest object on the closer x face
	viaY := fx*fx + dy*dy // nearest object on the closer y face
	return math.Sqrt(math.Min(viaX, viaY))
}

func TestMinMaxDist(t *testing.T) {
	r := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	// Query at the center: nearest face is 5 away; the guaranteed object on
	// that face may sit at the far end of the other axis: sqrt(25+25).
	if got, want := minMaxDist(r, geom.Pt(5, 5)), math.Sqrt(50); math.Abs(got-want) > 1e-12 {
		t.Errorf("center MinMaxDist = %v, want %v", got, want)
	}
	// Query far left: closer x face is x=0; object may be at y=10:
	// sqrt(100 + 100) via x; via y: closer y face 0 with far x face 10:
	// sqrt(400+100). min is via x.
	if got, want := minMaxDist(r, geom.Pt(-10, 0)), math.Hypot(10, 10); math.Abs(got-want) > 1e-12 {
		t.Errorf("left MinMaxDist = %v, want %v", got, want)
	}
}

// MINMAXDIST's defining guarantee: for any MBR tightly bounding a point set
// (every face touched), at least one point lies within MinMaxDist of any
// query. And MINDIST <= MINMAXDIST <= MAXDIST always.
func TestMinMaxDistGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		// A point set whose MBR touches all faces by construction.
		n := 4 + rng.Intn(20)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		mbr := geom.EmptyRect()
		for _, p := range pts {
			mbr = mbr.Union(geom.RectFromPoint(p))
		}
		q := geom.Pt(rng.Float64()*300-100, rng.Float64()*300-100)
		mmd := minMaxDist(mbr, q)
		if mbr.MinDist(q) > mmd+1e-9 || mmd > mbr.MaxDist(q)+1e-9 {
			t.Fatalf("ordering violated: min %v mm %v max %v",
				mbr.MinDist(q), mmd, mbr.MaxDist(q))
		}
		nearest := math.Inf(1)
		for _, p := range pts {
			if d := q.Dist(p); d < nearest {
				nearest = d
			}
		}
		if nearest > mmd+1e-9 {
			t.Fatalf("guarantee violated: nearest object %v beyond MinMaxDist %v", nearest, mmd)
		}
	}
}
