package lint_test

import (
	"testing"

	"twoview/internal/lint"
	"twoview/internal/lint/linttest"
)

// One fixture package per analyzer; each holds flagged patterns with
// `// want` expectations next to allowed or annotated twins, so every
// test fails both on a missed finding and on a false positive.

func TestDetorder(t *testing.T) {
	linttest.Run(t, "testdata/src/detorder", lint.Detorder)
}

func TestCtxprobe(t *testing.T) {
	linttest.Run(t, "testdata/src/ctxprobe", lint.Ctxprobe)
}

func TestNowallclock(t *testing.T) {
	linttest.Run(t, "testdata/src/nowallclock", lint.Nowallclock)
}

func TestScratchescape(t *testing.T) {
	linttest.Run(t, "testdata/src/scratchescape", lint.Scratchescape)
}
