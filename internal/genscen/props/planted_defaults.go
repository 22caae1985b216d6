//go:build !race

package props

// plantedSeeds sizes TestPlantedGradientErrors' corpus.
const plantedSeeds = 300
