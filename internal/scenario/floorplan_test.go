package scenario

import (
	"math"
	"strings"
	"testing"
)

// fpFile builds a floorplan scenario over one default cluster (100 µm
// pitch × 10 → 1 mm wide die, 10 mm long).
func fpFile(top, bottom Die) *File {
	return &File{
		Name:      "fp",
		Floorplan: &Floorplan{Top: top, Bottom: bottom},
	}
}

func uniformDie(wcm2 float64) Die {
	return Die{WidthMM: 1, BackgroundWcm2: wcm2, BackgroundAvgWcm2: wcm2 / 2}
}

// TestFloorplanRasterizeUniform: a block-free die dissipating only
// background rasterizes to uniform channel fluxes at exactly the
// background density.
func TestFloorplanRasterizeUniform(t *testing.T) {
	f := fpFile(uniformDie(40), uniformDie(40))
	spec, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Channels) != 1 {
		t.Fatalf("channels = %d, want 1", len(spec.Channels))
	}
	// 40 W/cm² on a 1 mm cluster = 400 W/m of linear flux.
	for _, z := range []float64{0.0005, 0.005, 0.0095} {
		if got := spec.Channels[0].FluxTop.At(z); math.Abs(got-400) > 1e-9 {
			t.Errorf("top flux at %g = %g W/m, want 400", z, got)
		}
	}
	// Average mode selects the halved background.
	f.Mode = "average"
	avg, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if got := avg.Channels[0].FluxTop.At(0.005); math.Abs(got-200) > 1e-9 {
		t.Errorf("average-mode flux = %g W/m, want 200", got)
	}
}

// TestFloorplanRasterizeBlocks: block power is integrated exactly into
// the covered slices (a core block spanning the first half of the die
// raises exactly the first half's segments).
func TestFloorplanRasterizeBlocks(t *testing.T) {
	top := uniformDie(10)
	top.Blocks = []Block{{
		Kind: "core", XMM: 0, YMM: 0, WMM: 5, HMM: 1, PeakWcm2: 110, AvgWcm2: 50,
	}}
	f := fpFile(top, uniformDie(10))
	f.Floorplan.FluxSegments = 4
	spec, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	vals := spec.Channels[0].FluxTop.Values()
	if len(vals) != 4 {
		t.Fatalf("segments = %d, want 4", len(vals))
	}
	// First two slices covered by the 110 W/cm² core, last two background.
	for i, want := range []float64{1100, 1100, 100, 100} {
		if math.Abs(vals[i]-want) > 1e-9 {
			t.Errorf("segment %d = %g W/m, want %g", i, vals[i], want)
		}
	}
}

// TestFloorplanMultiChannel: a die spanning three clusters rasterizes
// into three channels, and a block confined to the middle strip only
// heats the middle channel.
func TestFloorplanMultiChannel(t *testing.T) {
	top := Die{WidthMM: 3, BackgroundWcm2: 5, BackgroundAvgWcm2: 2}
	top.Blocks = []Block{{
		Kind: "accel", XMM: 2, YMM: 1.2, WMM: 3, HMM: 0.6, PeakWcm2: 200, AvgWcm2: 80,
	}}
	bottom := Die{WidthMM: 3, BackgroundWcm2: 5, BackgroundAvgWcm2: 2}
	f := fpFile(top, bottom)
	spec, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Channels) != 3 {
		t.Fatalf("channels = %d, want 3", len(spec.Channels))
	}
	mid := spec.Channels[1].FluxTop.Total()
	for _, k := range []int{0, 2} {
		if got := spec.Channels[k].FluxTop.Total(); got >= mid {
			t.Errorf("channel %d total %g W not below hot middle channel %g W", k, got, mid)
		}
	}
}

// floorplanErrorCases mutate a valid two-die floorplan file into one Spec
// must reject with an error mentioning want.
var floorplanErrorCases = []struct {
	name string
	mut  func(f *File)
	want string
}{
	{
		name: "zero-area block",
		mut: func(f *File) {
			f.Floorplan.Top.Blocks = []Block{{Kind: "core", XMM: 1, YMM: 0.2, WMM: 0, HMM: 0.5, PeakWcm2: 100}}
		},
		want: "zero or negative area",
	},
	{
		name: "negative-extent block",
		mut: func(f *File) {
			f.Floorplan.Top.Blocks = []Block{{Kind: "l2", XMM: 1, YMM: 0.2, WMM: 2, HMM: -0.5, PeakWcm2: 20}}
		},
		want: "zero or negative area",
	},
	{
		name: "overlapping blocks",
		mut: func(f *File) {
			f.Floorplan.Top.Blocks = []Block{
				{Kind: "core", XMM: 1, YMM: 0.1, WMM: 3, HMM: 0.5, PeakWcm2: 100},
				{Kind: "accel", XMM: 3, YMM: 0.3, WMM: 3, HMM: 0.5, PeakWcm2: 150},
			}
		},
		want: "overlap",
	},
	{
		name: "block exceeds the die",
		mut: func(f *File) {
			f.Floorplan.Bottom.Blocks = []Block{{Kind: "io", XMM: 8, YMM: 0, WMM: 5, HMM: 1, PeakWcm2: 20}}
		},
		want: "exceeds the die",
	},
	{
		name: "average above peak",
		mut: func(f *File) {
			f.Floorplan.Top.Blocks = []Block{{Kind: "core", XMM: 1, YMM: 0.2, WMM: 2, HMM: 0.5, PeakWcm2: 50, AvgWcm2: 60}}
		},
		want: "average exceeds peak",
	},
	{
		name: "unknown block kind",
		mut: func(f *File) {
			f.Floorplan.Top.Blocks = []Block{{Kind: "gpu", XMM: 1, YMM: 0.2, WMM: 2, HMM: 0.5, PeakWcm2: 50}}
		},
		want: "unknown block kind",
	},
	{
		name: "die width not a whole number of clusters",
		mut: func(f *File) {
			f.Floorplan.Top.WidthMM = 1.3
			f.Floorplan.Bottom.WidthMM = 1.3
		},
		want: "whole number of cluster widths",
	},
	{
		name: "mismatched die widths",
		mut: func(f *File) {
			f.Floorplan.Bottom.WidthMM = 2
		},
		want: "die widths differ",
	},
	{
		name: "floorplan with preset",
		mut:  func(f *File) { f.Preset = "testA" },
		want: "both preset",
	},
	{
		name: "floorplan with explicit channels",
		mut: func(f *File) {
			f.Channels = []Channel{{TopWcm2: []float64{50}, BottomWcm2: []float64{50}}}
		},
		want: "both a floorplan and explicit channels",
	},
}

// TestFloorplanValidation: the generator-exercised failure modes —
// zero-area and overlapping blocks, bad geometry, bad coupling — fail at
// scenario validation with errors naming the offending block, instead of
// surfacing as downstream solve failures.
func TestFloorplanValidation(t *testing.T) {
	for _, tc := range floorplanErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			f := fpFile(uniformDie(40), uniformDie(40))
			tc.mut(f)
			_, err := f.Spec()
			if err == nil {
				t.Fatalf("invalid floorplan accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestFloorplanRasterized: the explicit-channel projection solves to the
// same spec as the floorplan form.
func TestFloorplanRasterized(t *testing.T) {
	top := uniformDie(10)
	top.Blocks = []Block{{Kind: "core", XMM: 2, YMM: 0.25, WMM: 3, HMM: 0.5, PeakWcm2: 120, AvgWcm2: 40}}
	f := fpFile(top, uniformDie(25))
	raster, err := f.Rasterized()
	if err != nil {
		t.Fatal(err)
	}
	if raster.Floorplan != nil || len(raster.Channels) == 0 {
		t.Fatal("Rasterized kept the floorplan or produced no channels")
	}
	a, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	b, err := raster.Spec()
	if err != nil {
		t.Fatal(err)
	}
	av := a.Channels[0].FluxTop.Values()
	bv := b.Channels[0].FluxTop.Values()
	for i := range av {
		if math.Abs(av[i]-bv[i]) > 1e-9*math.Abs(av[i]) {
			t.Fatalf("segment %d: floorplan %g vs rasterized %g", i, av[i], bv[i])
		}
	}
}
