//go:build race

package props

// plantedSeeds sizes TestPlantedGradientErrors' corpus: race-instrumented
// solves run several times slower.
const plantedSeeds = 30
