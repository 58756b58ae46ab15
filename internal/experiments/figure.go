package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/lsi"
	"repro/internal/stats"
)

// Figure renders the Table 1 result as the paper's implicit "figure": text
// histograms of the two pairwise-angle populations in both spaces. The
// paper reports only summary statistics; the histograms make the
// distributional claim visible — intratopic mass collapsing to ≈0 in the
// LSI space while intertopic mass stays pinned at π/2.
func (r *Table1Result) Figure(origSet, lsiSet lsi.AngleSet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Angle distributions (radians), %d bins over [0, π/2+]\n\n", figureBins)
	b.WriteString(renderHistogram("Intratopic, original space", origSet.Intra))
	b.WriteString(renderHistogram("Intratopic, LSI space", lsiSet.Intra))
	b.WriteString(renderHistogram("Intertopic, original space", origSet.Inter))
	b.WriteString(renderHistogram("Intertopic, LSI space", lsiSet.Inter))
	return b.String()
}

const figureBins = 16

// renderHistogram draws one population as a fixed-width ASCII bar chart
// over [0, π/2 + slack], normalized to the largest bin.
func renderHistogram(title string, angles []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d)\n", title, len(angles))
	if len(angles) == 0 {
		b.WriteString("  (empty)\n\n")
		return b.String()
	}
	hi := math.Pi/2 + 0.1
	counts := stats.Histogram(angles, 0, hi, figureBins)
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	const width = 46
	binWidth := hi / figureBins
	for i, c := range counts {
		bar := 0
		if maxCount > 0 {
			bar = int(math.Round(float64(c) / float64(maxCount) * width))
		}
		if c > 0 && bar == 0 {
			bar = 1 // visible tick for non-empty bins
		}
		fmt.Fprintf(&b, "  %5.2f–%5.2f |%s %d\n",
			float64(i)*binWidth, float64(i+1)*binWidth, strings.Repeat("#", bar), c)
	}
	b.WriteString("\n")
	return b.String()
}

// RunTable1WithFigure runs the Table 1 experiment and also returns the
// rendered histogram figure (requires keeping the raw angle sets, which
// RunTable1 itself discards to save memory at paper scale).
func RunTable1WithFigure(cfg Table1Config) (*Table1Result, string, error) {
	model, err := corpusModelFor(cfg)
	if err != nil {
		return nil, "", err
	}
	c, err := generateFor(cfg, model)
	if err != nil {
		return nil, "", err
	}
	a := termDocFor(cfg, c)
	labels := c.Labels()
	ix, err := lsi.Build(a, cfg.K, lsi.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, "", err
	}
	origSet := lsi.OriginalAngles(a, labels)
	lsiSet := ix.Angles(labels)
	res := &Table1Result{Config: cfg, SingularValues: ix.SingularValues()}
	res.OriginalIntra, res.OriginalInter = origSet.Summaries()
	res.LSIIntra, res.LSIInter = lsiSet.Summaries()
	res.OriginalSkew = lsi.OriginalSkew(a, labels)
	res.LSISkew = ix.Skew(labels)
	return res, res.Figure(origSet, lsiSet), nil
}
