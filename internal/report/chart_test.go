package report

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestChartRender(t *testing.T) {
	c := &Chart{
		Title:  "test chart",
		XLabel: "x",
		X:      []float64{1, 10, 100},
		Labels: []string{"a", "b"},
		Series: [][]float64{{100, 50, 25}, {90, 60, 40}},
		LogX:   true,
		Width:  40, Height: 10,
	}
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"test chart", "*=a", "o=b", "100.0", "25.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// Every grid row fits the declared width (plus the axis label).
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "|") && len(line) > 9+40 {
			t.Errorf("row too wide: %q", line)
		}
	}
}

func TestChartEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Chart{}).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Fatal("empty chart not flagged")
	}
}

func TestResultPlots(t *testing.T) {
	fig2, err := Figure2Context(context.Background(), sharedWS)
	if err != nil {
		t.Fatal(err)
	}
	fig4, err := Figure4Context(context.Background(), sharedWS)
	if err != nil {
		t.Fatal(err)
	}
	fig5, err := Figure5Context(context.Background(), sharedWS)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fig2.Plot(&buf, "fig2"); err != nil {
		t.Fatal(err)
	}
	if err := fig4.Plot(&buf, "fig4"); err != nil {
		t.Fatal(err)
	}
	if err := fig5.Plot(&buf, "fig5"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "omniscient") {
		t.Fatal("plots incomplete")
	}
}
