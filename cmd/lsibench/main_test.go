package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/small.golden")

// timingColumns are the columns, by table, that hold wall-clock times or
// ratios of them: the golden masks them, by name, and pins every other
// byte of `lsibench all -small`.
var timingColumns = map[string][]string{
	"ablate-engine": {"ms"},
	"runtime":       {"full ms", "lanczos ms", "two-step ms", "speedup"},
}

// TestSmallTablesGolden pins every table `lsibench all -small` prints,
// byte for byte apart from the timing columns. A change that moves a cell
// is a named re-pin: rerun with -update and list the cells this test
// reports in the change's notes.
func TestSmallTablesGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"all", "-small"}, &stdout, &stderr); code != 0 {
		t.Fatalf("lsibench all -small exited %d: %s", code, stderr.String())
	}
	got := maskTimings(stdout.String())
	path := filepath.Join("testdata", "small.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("lsibench all -small moved from %s (rerun with -update to re-pin):\n%s",
			path, strings.Join(changedCells(string(want), got), "\n"))
	}
}

// TestChangedCellsNamesEachCell: a masked timing column never differs,
// and a moved value is reported by its table, row and column.
func TestChangedCellsNamesEachCell(t *testing.T) {
	want := "==== runtime ====\nSection 5\n   terms    full ms  energy ratio\n     500      285.3         1.136\n"
	got := strings.NewReplacer("285.3", "1301.2", "1.136", "1.140").Replace(want)
	diffs := changedCells(maskTimings(want), maskTimings(got))
	if len(diffs) != 1 || diffs[0] != `table runtime, row "500", column "energy ratio": 1.136 -> 1.140` {
		t.Fatalf("changed cells: %q", diffs)
	}
}

// TestRefusesIgnoredArguments: an argument an experiment has no use for
// fails the command line instead of being dropped.
func TestRefusesIgnoredArguments(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		refused string
	}{
		{[]string{"thm2", "-bogus", "-k", "3"}, "-bogus"},
		{[]string{"thm2", "-small", "extra"}, "extra"},
		{[]string{"ablate-engine", "-seed", "1"}, "-seed"},
		{[]string{"table1", "-small", "-no-such-flag"}, "-no-such-flag"},
		{[]string{"table1", "-small", "stray"}, "stray"},
		{[]string{"all", "-small", "thm2"}, "thm2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("lsibench %v exited %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.refused) {
			t.Errorf("lsibench %v: stderr does not name %s:\n%s", tc.args, tc.refused, stderr.String())
		}
		if stdout.Len() > 0 {
			t.Errorf("lsibench %v ran anyway:\n%s", tc.args, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"thm2", "-json", "-small"}, &stdout, &stderr); code != 0 {
		t.Fatalf("lsibench thm2 -json -small exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), `"experiment": "thm2"`) {
		t.Fatalf("-json output lacks the experiment name:\n%s", stdout.String())
	}
}

// tableName reports the experiment a "==== name ====" line starts.
func tableName(line string) (string, bool) {
	name, ok := strings.CutPrefix(line, "==== ")
	if !ok || !strings.HasSuffix(name, " ====") {
		return "", false
	}
	return strings.TrimSuffix(name, " ===="), true
}

// sections splits `lsibench all` output into its tables' lines, by name.
func sections(out string) (names []string, lines map[string][]string) {
	lines = map[string][]string{}
	name := ""
	for _, line := range strings.Split(out, "\n") {
		if n, ok := tableName(line); ok {
			name = n
			names = append(names, n)
			continue
		}
		lines[name] = append(lines[name], line)
	}
	return names, lines
}

// token is one whitespace-separated word of a line, with its rune span.
type token struct {
	text       string
	start, end int
}

func tokens(line []rune) []token {
	var toks []token
	for i := 0; i < len(line); {
		if line[i] == ' ' {
			i++
			continue
		}
		j := i
		for j < len(line) && line[j] != ' ' {
			j++
		}
		toks = append(toks, token{string(line[i:j]), i, j})
		i = j
	}
	return toks
}

// isValue reports whether a word is a table value: a number, possibly a
// percentage or a speedup ("105.3%", "16.7x"), the "-" of an undefined
// ratio, or a masked timing "~".
func isValue(s string) bool {
	if s == "-" || s == "~" {
		return true
	}
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x")
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

// cell is one value of a table row, named by its row and column.
type cell struct {
	row, col string
	tok      token
}

// rowCells names the values of line i of a section. A row is a line that
// ends in a value; its header is the nearest line above it, in the same
// block of non-blank lines, that does not. The row's values are its
// trailing run of values and separators ("|", "–"); its label is the text
// before them (or its first value, in an all-numeric row). A value's
// column is the header words inside the value's field, which runs from
// the end of the word before it to its own end (the tables right-align
// their values under their headers). Rows without a header give nil.
func rowCells(lines []string, i int) []cell {
	line := []rune(lines[i])
	toks := tokens(line)
	if len(toks) == 0 || !isValue(toks[len(toks)-1].text) {
		return nil
	}
	var header []rune
	for j := i - 1; j >= 0 && strings.TrimSpace(lines[j]) != ""; j-- {
		if h := tokens([]rune(lines[j])); !isValue(h[len(h)-1].text) {
			header = []rune(lines[j])
			break
		}
	}
	if header == nil {
		return nil
	}
	first := len(toks)
	for first > 0 && (isValue(toks[first-1].text) || !hasLetterOrDigit(toks[first-1].text)) {
		first--
	}
	label := ""
	if first > 0 {
		label = string(line[:toks[first-1].end])
	}
	var cells []cell
	for k := first; k < len(toks); k++ {
		if !isValue(toks[k].text) {
			continue // a separator
		}
		lo := 0
		if k > 0 {
			lo = toks[k-1].end
		}
		if label == "" {
			label = toks[k].text
		}
		cells = append(cells, cell{row: label, col: columnName(header, lo, toks[k].end), tok: toks[k]})
	}
	return cells
}

// columnName is the header words that lie in runes [lo, hi) or run past
// hi, without leading or trailing punctuation.
func columnName(header []rune, lo, hi int) string {
	var words []string
	for _, w := range tokens(header) {
		if w.start >= lo && w.start < hi {
			words = append(words, w.text)
		}
	}
	for len(words) > 0 && !hasLetterOrDigit(words[0]) {
		words = words[1:]
	}
	for len(words) > 0 && !hasLetterOrDigit(words[len(words)-1]) {
		words = words[:len(words)-1]
	}
	return strings.Join(words, " ")
}

func hasLetterOrDigit(s string) bool {
	return strings.ContainsFunc(s, func(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) })
}

// maskTimings replaces every value in a timing column with "~",
// right-aligned in the value's width, so the line keeps its layout.
func maskTimings(out string) string {
	lines := strings.Split(out, "\n")
	masked := make([]string, len(lines))
	table := ""
	for i, line := range lines {
		masked[i] = line
		if name, ok := tableName(line); ok {
			table = name
			continue
		}
		runes := []rune(line)
		for _, c := range rowCells(lines, i) {
			if slices.Contains(timingColumns[table], c.col) {
				for r := c.tok.start; r < c.tok.end-1; r++ {
					runes[r] = ' '
				}
				runes[c.tok.end-1] = '~'
				masked[i] = string(runes)
			}
		}
	}
	return strings.Join(masked, "\n")
}

// changedCells lists what differs between two masked outputs: one line
// per changed cell (table, row label, column, old value, new value), or
// the whole line where a line is not a table row, or its label or shape
// changed.
func changedCells(want, got string) []string {
	var diffs []string
	wantNames, wantLines := sections(want)
	gotNames, gotLines := sections(got)
	for _, name := range gotNames {
		if _, ok := wantLines[name]; !ok {
			diffs = append(diffs, fmt.Sprintf("table %s: new", name))
		}
	}
	for _, name := range wantNames {
		w, g := wantLines[name], gotLines[name]
		if g == nil {
			diffs = append(diffs, fmt.Sprintf("table %s: missing", name))
			continue
		}
		for i := 0; i < max(len(w), len(g)); i++ {
			if i >= len(w) || i >= len(g) {
				diffs = append(diffs, fmt.Sprintf("table %s line %d: %q -> %q",
					name, i+1, strings.Join(w[min(i, len(w)):], "\n"), strings.Join(g[min(i, len(g)):], "\n")))
				break
			}
			if w[i] == g[i] {
				continue
			}
			before := len(diffs)
			if oc, nc := rowCells(w, i), rowCells(g, i); len(oc) == len(nc) && len(oc) > 0 && oc[0].row == nc[0].row {
				for k := range oc {
					if oc[k].tok.text != nc[k].tok.text {
						diffs = append(diffs, fmt.Sprintf("table %s, row %q, column %q: %s -> %s",
							name, oc[k].row, oc[k].col, oc[k].tok.text, nc[k].tok.text))
					}
				}
			}
			if len(diffs) == before {
				diffs = append(diffs, fmt.Sprintf("table %s line %d: %q -> %q", name, i+1, w[i], g[i]))
			}
		}
	}
	return diffs
}
