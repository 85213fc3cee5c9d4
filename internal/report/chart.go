package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Chart renders labeled (x, y) series as an ASCII line chart, so the
// paper's figures can be eyeballed directly in a terminal
// (cmd/nvreport -plot).
type Chart struct {
	Title  string
	XLabel string
	// LogX plots x on a log10 scale (Figures 2-4 use log axes).
	LogX   bool
	X      []float64
	Labels []string
	Series [][]float64
	// Width and Height are the plot area in characters; defaults 64x20.
	Width, Height int
}

// seriesMarks distinguishes up to eight series.
var seriesMarks = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Render draws the chart.
func (c *Chart) Render(w io.Writer) error {
	width, height := c.Width, c.Height
	if width <= 0 {
		width = 64
	}
	if height <= 0 {
		height = 20
	}
	if len(c.X) == 0 || len(c.Series) == 0 {
		_, err := fmt.Fprintln(w, "(empty chart)")
		return err
	}

	xpos := func(x float64) float64 {
		if c.LogX {
			return math.Log10(x)
		}
		return x
	}
	xmin, xmax := xpos(c.X[0]), xpos(c.X[len(c.X)-1])
	if xmax == xmin {
		xmax = xmin + 1
	}
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for _, v := range s {
			ymin = math.Min(ymin, v)
			ymax = math.Max(ymax, v)
		}
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	plot := func(x, y float64, mark byte) {
		col := int((xpos(x) - xmin) / (xmax - xmin) * float64(width-1))
		row := int((ymax - y) / (ymax - ymin) * float64(height-1))
		if col < 0 || col >= width || row < 0 || row >= height {
			return
		}
		grid[row][col] = mark
	}
	for si, s := range c.Series {
		mark := seriesMarks[si%len(seriesMarks)]
		for j := range s {
			if j+1 < len(s) {
				// Linear interpolation between points for a line feel.
				x0, y0 := xpos(c.X[j]), s[j]
				x1, y1 := xpos(c.X[j+1]), s[j+1]
				steps := width / max(1, len(c.X)-1)
				for k := 0; k <= steps; k++ {
					t := float64(k) / float64(max(1, steps))
					xv := x0 + t*(x1-x0)
					// un-log for plot() which re-logs
					if c.LogX {
						xv = math.Pow(10, xv)
					}
					plot(xv, y0+t*(y1-y0), mark)
				}
			}
			plot(c.X[j], s[j], mark)
		}
	}

	if c.Title != "" {
		fmt.Fprintln(w, c.Title)
	}
	for i, row := range grid {
		label := "        "
		switch i {
		case 0:
			label = fmt.Sprintf("%7.1f ", ymax)
		case height - 1:
			label = fmt.Sprintf("%7.1f ", ymin)
		case height / 2:
			label = fmt.Sprintf("%7.1f ", (ymax+ymin)/2)
		}
		fmt.Fprintf(w, "%s|%s\n", label, string(row))
	}
	fmt.Fprintf(w, "        +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "        %-10g%*s%10g  (%s)\n", c.X[0],
		width-18, "", c.X[len(c.X)-1], c.XLabel)
	var legend []string
	for si, l := range c.Labels {
		legend = append(legend, fmt.Sprintf("%c=%s", seriesMarks[si%len(seriesMarks)], l))
	}
	if len(legend) > 0 {
		fmt.Fprintf(w, "        %s\n", strings.Join(legend, "  "))
	}
	return nil
}

// Plot renders a PolicySweepResult as an ASCII chart.
func (r *PolicySweepResult) Plot(w io.Writer, title string) error {
	series := make([][]float64, len(r.Frac))
	for i, s := range r.Frac {
		series[i] = scale100(s)
	}
	c := &Chart{
		Title: title, XLabel: "MB NVRAM (log)",
		LogX: true, X: r.SizesMB, Labels: r.Labels, Series: series,
	}
	return c.Render(w)
}

// Plot renders a ModelCompareResult as an ASCII chart.
func (r *ModelCompareResult) Plot(w io.Writer, title string) error {
	// Skip x=0 when plotting on a linear axis is fine; keep linear here.
	series := make([][]float64, len(r.Frac))
	for i, s := range r.Frac {
		series[i] = scale100(s)
	}
	c := &Chart{
		Title: title, XLabel: "extra MB",
		X: r.ExtraMB, Labels: r.Labels, Series: series,
	}
	return c.Render(w)
}

// Plot renders a Figure2Result as an ASCII chart (a subset of traces keeps
// the plot legible: 1, 3, and 7 as in the paper's discussion).
func (r *Figure2Result) Plot(w io.Writer, title string) error {
	pick := []int{0, 2, 6}
	var labels []string
	var series [][]float64
	for _, idx := range pick {
		if idx < len(r.Frac) {
			labels = append(labels, fmt.Sprintf("trace%d", idx+1))
			series = append(series, scale100(r.Frac[idx]))
		}
	}
	c := &Chart{
		Title: title, XLabel: "minutes (log)", LogX: true,
		X: r.DelayMinutes, Labels: labels, Series: series,
	}
	return c.Render(w)
}

func scale100(s []float64) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = v * 100
	}
	return out
}
