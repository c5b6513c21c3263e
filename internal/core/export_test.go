package core

// CheckSelectAgainstOracle exposes checkSelectAgainstOracle to the
// external tests of this package, which can import internal/synth
// (itself an importer of core) for paper-profile data.
var CheckSelectAgainstOracle = checkSelectAgainstOracle

// CheckMemoSavesWork exposes checkMemoSavesWork likewise.
var CheckMemoSavesWork = checkMemoSavesWork
