package experiments

import (
	"fmt"
	"math"
	"strings"
)

// Figure renders the Table 1 result as the paper's implicit "figure": text
// histograms of the two pairwise-angle populations in both spaces. The
// paper reports only summary statistics; the histograms make the
// distributional claim visible — intratopic mass collapsing to ≈0 in the
// LSI space while intertopic mass stays pinned at π/2.
func (r *Table1Result) Figure() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Angle distributions (radians), %d bins over [0, π/2+]\n\n", figureBins)
	for i, title := range []string{
		"Intratopic, original space", "Intratopic, LSI space",
		"Intertopic, original space", "Intertopic, LSI space",
	} {
		b.WriteString(renderHistogram(title, r.Histograms[i]))
	}
	return b.String()
}

// The figure's bins: figureBins of them over [0, figureTop].
const (
	figureBins = 16
	figureTop  = math.Pi/2 + 0.1
)

// renderHistogram draws one population's bin counts as a fixed-width ASCII
// bar chart over [0, figureTop], normalized to the largest bin.
func renderHistogram(title string, counts []int) string {
	var b strings.Builder
	n, maxCount := 0, 0
	for _, c := range counts {
		n += c
		maxCount = max(maxCount, c)
	}
	fmt.Fprintf(&b, "%s (n=%d)\n", title, n)
	if n == 0 {
		b.WriteString("  (empty)\n\n")
		return b.String()
	}
	const width = 46
	binWidth := figureTop / figureBins
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
