package core

// Test fixtures shared with the external core_test package, whose tests
// drive the compiled plan (which imports core) against Model.Score.
var (
	FixtureConfig   = testConfig
	FixtureSpace    = testSpace
	FixtureInstance = testInstance
	ParityConfigs   = parityConfigs
	ScoreRef        = scoreRef
)
