package experiments

import (
	"strings"
	"testing"
)

func TestBaseConfigTables(t *testing.T) {
	// Table 3 spot checks (converted to SI units).
	la := BaseConfig(LosAngeles, Area2mi)
	if la.NumPOIs != 16 || la.NumHosts != 463 || la.CacheSize != 10 {
		t.Errorf("LA 2mi config wrong: %+v", la)
	}
	if la.AreaWidth < 3218 || la.AreaWidth > 3219 {
		t.Errorf("2mi side = %v m", la.AreaWidth)
	}
	if la.QueriesPerMinute != 23 {
		t.Errorf("LA 2mi lambda = %v", la.QueriesPerMinute)
	}
	rv := BaseConfig(Riverside, Area2mi)
	if rv.NumPOIs != 5 || rv.NumHosts != 50 || rv.QueriesPerMinute != 2.5 {
		t.Errorf("Riverside 2mi config wrong: %+v", rv)
	}
	syn := BaseConfig(Suburbia, Area2mi)
	if syn.NumPOIs != 11 || syn.NumHosts != 257 || syn.QueriesPerMinute != 13 {
		t.Errorf("Suburbia 2mi config wrong: %+v", syn)
	}
	// Table 4 spot checks.
	la30 := BaseConfig(LosAngeles, Area30mi)
	if la30.NumPOIs != 4050 || la30.NumHosts != 121500 || la30.CacheSize != 20 {
		t.Errorf("LA 30mi config wrong: %+v", la30)
	}
	if la30.Duration != 5*3600 {
		t.Errorf("30mi duration = %v", la30.Duration)
	}
	rv30 := BaseConfig(Riverside, Area30mi)
	if rv30.NumPOIs != 2160 || rv30.NumHosts != 11700 || rv30.QueriesPerMinute != 780 {
		t.Errorf("Riverside 30mi config wrong: %+v", rv30)
	}
	syn30 := BaseConfig(Suburbia, Area30mi)
	if syn30.NumPOIs != 3105 || syn30.NumHosts != 66600 {
		t.Errorf("Suburbia 30mi config wrong: %+v", syn30)
	}
	// Velocity is 30 mph in every set.
	if la.Velocity < 13.4 || la.Velocity > 13.42 {
		t.Errorf("velocity = %v m/s, want ~13.41", la.Velocity)
	}
	// Every config must validate.
	for _, r := range Regions {
		for _, a := range []Area{Area2mi, Area30mi} {
			if _, err := BaseConfig(r, a).Validate(); err != nil {
				t.Errorf("config %v/%v invalid: %v", r, a, err)
			}
		}
	}
}

func TestScaleHelpers(t *testing.T) {
	cfg := BaseConfig(LosAngeles, Area2mi)
	scaled := ScaleDuration(cfg, 30)
	if scaled.Duration != 120 {
		t.Errorf("scaled duration = %v, want 120", scaled.Duration)
	}
	if ScaleDuration(cfg, 1).Duration != 3600 {
		t.Error("scale 1 must preserve the paper duration")
	}
	hosts := ScaleHosts(cfg, 10)
	if hosts.NumHosts != 46 || hosts.QueriesPerMinute != 2.3 {
		t.Errorf("host scaling wrong: %+v", hosts)
	}
	tiny := ScaleHosts(BaseConfig(Riverside, Area2mi), 1000)
	if tiny.NumHosts < 1 || tiny.QueriesPerMinute < 0.5 {
		t.Errorf("scaling floors not applied: %+v", tiny)
	}
}

func TestParseRegion(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Region
	}{
		{"la", LosAngeles}, {"LosAngeles", LosAngeles}, {"los-angeles", LosAngeles},
		{"suburbia", Suburbia}, {"SYN", Suburbia}, {"synthetic", Suburbia},
		{"riverside", Riverside}, {"rv", Riverside},
	} {
		got, err := ParseRegion(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseRegion(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseRegion("gotham"); err == nil {
		t.Error("unknown region accepted")
	}
}

func TestStrings(t *testing.T) {
	for _, r := range []Region{LosAngeles, Suburbia, Riverside, Region(9)} {
		if r.String() == "" {
			t.Errorf("empty region string for %d", int(r))
		}
	}
	for _, a := range []Area{Area2mi, Area30mi, Area(9)} {
		if a.String() == "" {
			t.Errorf("empty area string for %d", int(a))
		}
	}
	if subfig(LosAngeles) != "a" || subfig(Suburbia) != "b" || subfig(Riverside) != "c" {
		t.Error("subfig letters wrong")
	}
}

// A fast end-to-end sweep: the transmission-range trend of Figure 9 must
// hold on the 2x2 mi LA parameter set even at an aggressive duration scale.
func TestTransmissionRangeSweepTrend(t *testing.T) {
	opts := Options{DurationScale: 30}
	fr, err := TransmissionRangeSweep(LosAngeles, Area2mi, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Figure != "9a" || len(fr.Points) != 10 {
		t.Fatalf("unexpected figure result: %s with %d points", fr.Figure, len(fr.Points))
	}
	first, last := fr.Points[0], fr.Points[len(fr.Points)-1]
	if last.ShareServer >= first.ShareServer {
		t.Errorf("server share did not fall with range: %.1f%% -> %.1f%%",
			first.ShareServer, last.ShareServer)
	}
	// Shares must sum to ~100 at every point.
	for _, p := range fr.Points {
		sum := p.ShareSingle + p.ShareMulti + p.ShareServer
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("shares at x=%v sum to %v", p.X, sum)
		}
	}
	out := FormatFigure(fr)
	if !strings.Contains(out, "Figure 9a") || !strings.Contains(out, "Transmission Range") {
		t.Errorf("format output missing headers:\n%s", out)
	}
}

func TestCacheCapacitySweepRuns(t *testing.T) {
	fr, err := CacheCapacitySweep(Riverside, Area2mi, Options{DurationScale: 30})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Figure != "11c" || len(fr.Points) != 5 {
		t.Fatalf("figure = %s points = %d", fr.Figure, len(fr.Points))
	}
}

func TestKSweepTrend(t *testing.T) {
	fr, err := KSweep(LosAngeles, Area2mi, Options{DurationScale: 30})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Figure != "15a" {
		t.Fatalf("figure = %s", fr.Figure)
	}
	// Server share grows with k (Figure 15).
	if fr.Points[len(fr.Points)-1].ShareServer <= fr.Points[0].ShareServer {
		t.Errorf("server share did not grow with k: %.1f%% at k=%v vs %.1f%% at k=%v",
			fr.Points[0].ShareServer, fr.Points[0].X,
			fr.Points[len(fr.Points)-1].ShareServer, fr.Points[len(fr.Points)-1].X)
	}
}

func TestVelocitySweepRuns(t *testing.T) {
	fr, err := VelocitySweep(Suburbia, Area2mi, Options{DurationScale: 30})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Figure != "13b" || len(fr.Points) != 5 {
		t.Fatalf("figure = %s points = %d", fr.Figure, len(fr.Points))
	}
}

func TestFreeMovementComparisonRuns(t *testing.T) {
	row, err := FreeMovementComparison(LosAngeles, Area2mi, Options{DurationScale: 30})
	if err != nil {
		t.Fatal(err)
	}
	if row.Region != "Los Angeles County" || row.Area != "2x2 mi" || row.Delta != row.RoadSQRR-row.FreeSQRR {
		t.Errorf("row mislabelled or inconsistent: %+v", row)
	}
	if row.RoadSQRR <= 0 && row.FreeSQRR <= 0 {
		t.Error("both modes report zero server share; implausible")
	}
}

func TestEINNvsINNReduction(t *testing.T) {
	fr, err := EINNvsINN(LosAngeles, Area30mi, 150, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range fr.Points {
		if p.EINNPages > p.INNPages {
			t.Errorf("k=%d: EINN pages %v exceed INN %v", p.K, p.EINNPages, p.INNPages)
		}
	}
	out := FormatFig17(fr)
	if !strings.Contains(out, "Figure 17") {
		t.Errorf("format output wrong:\n%s", out)
	}
}

func TestUncertainQuality(t *testing.T) {
	uqs, err := UncertainQuality(Area2mi, Options{DurationScale: 15})
	if err != nil {
		t.Fatal(err)
	}
	uq := uqs[0]
	if uq.Region != LosAngeles {
		t.Fatalf("first row is %v, want Regions order", uq.Region)
	}
	if uq.Queries == 0 {
		t.Fatal("no queries")
	}
	if uq.UncertainShare <= 0 {
		t.Skip("no uncertain answers at this scale")
	}
	if uq.Precision < 0.3 || uq.Precision > 1.0001 {
		t.Errorf("precision = %v, implausible", uq.Precision)
	}
	if uq.RankAccuracy > uq.Precision+1e-9 {
		t.Errorf("rank accuracy %v exceeds precision %v", uq.RankAccuracy, uq.Precision)
	}
}

func TestDiskIOStudy(t *testing.T) {
	fr, err := DiskIOStudy(Riverside, 60, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Points) == 0 || fr.TotalPages == 0 {
		t.Fatal("empty study")
	}
	for i, p := range fr.Points {
		if p.EINNFaults > p.INNFaults+1e-9 {
			t.Errorf("pool %.2f: EINN faults %v exceed INN %v",
				p.PoolFraction, p.EINNFaults, p.INNFaults)
		}
		if i > 0 && p.INNFaults > fr.Points[i-1].INNFaults+1e-9 {
			t.Errorf("faults grew with a larger pool: %v -> %v",
				fr.Points[i-1].INNFaults, p.INNFaults)
		}
	}
	last := fr.Points[len(fr.Points)-1]
	if last.PoolFraction == 1 && last.INNFaults != 0 {
		t.Errorf("full pool still faults: %v", last.INNFaults)
	}
	if !strings.Contains(FormatDiskIO(fr), "Disk I/O spectrum") {
		t.Error("format output missing header")
	}
}

func TestSortPointsByX(t *testing.T) {
	pts := []SeriesPoint{{X: 3}, {X: 1}, {X: 2}}
	SortPointsByX(pts)
	if pts[0].X != 1 || pts[2].X != 3 {
		t.Errorf("sort failed: %v", pts)
	}
}
