package core

import (
	"math/rand"

	"seqfm/internal/ag"
	"seqfm/internal/feature"
)

// newRand builds a seeded rng for dropout tests.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// scoreRef is the monolithic reference: one fresh inference tape per call.
func scoreRef(m *Model, inst feature.Instance) float64 {
	t := ag.NewTape()
	return m.Score(t, inst).Value.ScalarValue()
}

// parityConfigs enumerates the model variants whose two-phase forward must
// match the monolithic Score bit for bit: the full model, every
// single-component ablation, and the padding-mask extension.
func parityConfigs() map[string]Config {
	cfgs := map[string]Config{"default": testConfig()}
	for name, ab := range map[string]Ablation{
		"noStatic":   {NoStaticView: true},
		"noDynamic":  {NoDynamicView: true},
		"noCross":    {NoCrossView: true},
		"noResidual": {NoResidual: true},
		"noLN":       {NoLayerNorm: true},
	} {
		c := testConfig()
		c.Ablation = ab
		cfgs[name] = c
	}
	mp := testConfig()
	mp.MaskPadding = true
	cfgs["maskPadding"] = mp
	return cfgs
}
