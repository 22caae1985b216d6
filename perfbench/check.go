package main

import (
	"fmt"
	"math"

	channelmod "repro"
)

// injectedPower sums a spec's heat inputs piece by piece: each flux is
// piecewise constant over equal segments of the channel length.
func injectedPower(spec *channelmod.Spec) float64 {
	var q float64
	for _, ch := range spec.Channels {
		for _, f := range []*channelmod.Flux{ch.FluxTop, ch.FluxBottom} {
			vals := f.Values()
			seg := f.Length() / float64(len(vals))
			for _, v := range vals {
				q += v * seg
			}
		}
	}
	return q
}

// checkEnthalpy checks a compact-model design's energy balance: with
// adiabatic outer surfaces the coolant's enthalpy rise, summed over the
// channel columns, equals the injected power.
func checkEnthalpy(spec *channelmod.Spec, r *channelmod.Result, rel float64) error {
	if r == nil || r.Solution == nil {
		return fmt.Errorf("no solution")
	}
	p := spec.Params
	cvV := p.Coolant.VolumetricHeatCapacity() * p.ClusterFlowRate()
	var absorbed float64
	for k, ch := range r.Solution.Channels {
		if len(ch.TC) == 0 {
			return fmt.Errorf("channel %d has no coolant profile", k)
		}
		absorbed += cvV * (ch.TC[len(ch.TC)-1] - ch.TC[0])
	}
	return balance(absorbed, injectedPower(spec), rel)
}

func balance(absorbed, injected, rel float64) error {
	if !(injected > 0) {
		return fmt.Errorf("non-positive injected power %g W", injected)
	}
	if d := math.Abs(absorbed-injected) / injected; !(d <= rel) {
		return fmt.Errorf("coolant absorbs %.9g W of %.9g W injected (relative error %.3g above %g)", absorbed, injected, d, rel)
	}
	return nil
}
