package report

import (
	"strings"
	"testing"
)

func TestTableText(t *testing.T) {
	tb := NewTable("Table X", "System", "Power (kW)")
	tb.AddRow("Colosse", "398.7")
	tb.AddRow("Sequoia", "11503.3")
	out := tb.String()
	if !strings.Contains(out, "Table X") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "Colosse") || !strings.Contains(out, "11503.3") {
		t.Errorf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title, header, separator, 2 rows -> 5? title+header+sep+2 = 5
		if len(lines) != 5 {
			t.Errorf("unexpected line count %d:\n%s", len(lines), out)
		}
	}
	// Columns align: both data rows start the second column at the same
	// offset.
	idx1 := strings.Index(lines[3], "398.7")
	idx2 := strings.Index(lines[4], "11503.3")
	if idx1 != idx2 {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestTableAddRowPanics(t *testing.T) {
	tb := NewTable("", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row accepted")
		}
	}()
	tb.AddRow("only-one")
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("T", "a", "b")
	tb.AddRow("1", "2")
	var b strings.Builder
	if err := tb.WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "| a | b |") || !strings.Contains(out, "| --- | --- |") {
		t.Errorf("markdown:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "name", "note")
	tb.AddRow("x", `with "quote", comma`)
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"with ""quote"", comma"`) {
		t.Errorf("csv escaping:\n%s", out)
	}
	if !strings.HasPrefix(out, "name,note\n") {
		t.Errorf("csv header:\n%s", out)
	}
}

func TestLineChart(t *testing.T) {
	c := &LineChart{
		Title:  "Figure 1",
		Width:  40,
		Height: 10,
		YLabel: "kW",
		XLabel: "time",
		Series: []Series{
			{Name: "up", X: []float64{0, 1, 2, 3}, Y: []float64{0, 1, 2, 3}},
			{Name: "down", X: []float64{0, 1, 2, 3}, Y: []float64{3, 2, 1, 0}},
		},
	}
	var b strings.Builder
	if err := c.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "* up") || !strings.Contains(out, "o down") {
		t.Errorf("chart output:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("missing glyphs:\n%s", out)
	}
}

func TestLineChartErrors(t *testing.T) {
	var b strings.Builder
	if err := (&LineChart{}).Write(&b); err != ErrEmptySeries {
		t.Errorf("empty chart err = %v", err)
	}
	bad := &LineChart{Series: []Series{{Name: "bad", X: []float64{1}, Y: []float64{1, 2}}}}
	if err := bad.Write(&b); err == nil {
		t.Error("mismatched series accepted")
	}
}

func TestLineChartDegenerateRanges(t *testing.T) {
	// Single point and constant series must not divide by zero.
	c := &LineChart{Series: []Series{{Name: "pt", X: []float64{5}, Y: []float64{7}}}}
	var b strings.Builder
	if err := c.Write(&b); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramChart(t *testing.T) {
	h := &HistogramChart{
		Title:     "Figure 2",
		BinLabels: []string{"200-205", "205-210", "210-215"},
		Counts:    []int{5, 50, 12},
	}
	var b strings.Builder
	if err := h.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "205-210") {
		t.Errorf("histogram output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// The largest bin should have the longest bar.
	if !(strings.Count(lines[2], "█") > strings.Count(lines[1], "█")) {
		t.Errorf("bar lengths wrong:\n%s", out)
	}
}

func TestHistogramChartErrors(t *testing.T) {
	var b strings.Builder
	if err := (&HistogramChart{}).Write(&b); err != ErrEmptySeries {
		t.Error("empty histogram accepted")
	}
	h := &HistogramChart{BinLabels: []string{"a"}, Counts: []int{1, 2}}
	if err := h.Write(&b); err == nil {
		t.Error("mismatched labels accepted")
	}
}

func TestHistogramTinyNonzeroBarsVisible(t *testing.T) {
	h := &HistogramChart{
		BinLabels:   []string{"big", "tiny"},
		Counts:      []int{10000, 1},
		MaxBarWidth: 20,
	}
	var b strings.Builder
	if err := h.Write(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if !strings.Contains(lines[1], "▏") {
		t.Errorf("tiny nonzero bin invisible:\n%s", b.String())
	}
}
