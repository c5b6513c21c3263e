package lint

// All returns the full suite in stable order — the set cmd/twovet runs
// and the meta-test in cmd/twovet pins (an analyzer silently falling
// out of the multichecker is itself a regression).
func All() []*Analyzer {
	return []*Analyzer{
		Ctxprobe,
		Detorder,
		Nowallclock,
		Scratchescape,
	}
}
