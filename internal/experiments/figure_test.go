package experiments

import (
	"strings"
	"testing"
)

func TestRunTable1WithFigure(t *testing.T) {
	res, err := RunTable1(SmallTable1Config())
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figure()
	// Every pair of each population lands in its histogram.
	for i, n := range []int{res.OriginalIntra.N, res.LSIIntra.N, res.OriginalInter.N, res.LSIInter.N} {
		sum := 0
		for _, c := range res.Histograms[i] {
			sum += c
		}
		if len(res.Histograms[i]) != figureBins || sum != n {
			t.Fatalf("histogram %d: %d bins holding %d angles, want %d holding %d",
				i, len(res.Histograms[i]), sum, figureBins, n)
		}
	}
	// Figure content sanity: all four populations present, bars drawn.
	for _, want := range []string{
		"Intratopic, original space",
		"Intratopic, LSI space",
		"Intertopic, original space",
		"Intertopic, LSI space",
		"#",
	} {
		if !strings.Contains(fig, want) {
			t.Fatalf("figure missing %q:\n%s", want, fig)
		}
	}
	// In the LSI space, the intratopic histogram's first bin must dominate
	// (mass collapses to ≈0); check the rendered section has its largest
	// bar on the first line.
	lines := strings.Split(fig, "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "Intratopic, LSI space") {
			first := strings.Count(lines[i+1], "#")
			for j := i + 2; j < len(lines) && strings.Contains(lines[j], "|"); j++ {
				if strings.Count(lines[j], "#") > first {
					t.Fatal("LSI intratopic mass not concentrated in the first bin")
				}
			}
			return
		}
	}
	t.Fatal("LSI intratopic section not found")
}

func TestRenderHistogramEmpty(t *testing.T) {
	out := renderHistogram("empty", nil)
	if !strings.Contains(out, "(empty)") {
		t.Fatalf("empty histogram rendering: %q", out)
	}
}
