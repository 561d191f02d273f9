package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestDurationsEmpty(t *testing.T) {
	var d Durations
	if d.Mean() != 0 || d.Percentile(0.5) != 0 || d.Sum() != 0 {
		t.Fatal("empty series should report zeros")
	}
}

func TestDurationsStats(t *testing.T) {
	var d Durations
	for _, v := range []time.Duration{4, 1, 3, 2, 5} {
		d.Add(v * time.Millisecond)
	}
	if d.Mean() != 3*time.Millisecond {
		t.Fatalf("Mean = %v", d.Mean())
	}
	if got := d.Percentile(0.5); got != 3*time.Millisecond {
		t.Fatalf("P50 = %v", got)
	}
	if got := d.Percentile(0); got != 1*time.Millisecond {
		t.Fatalf("P0 = %v", got)
	}
	if got := d.Percentile(1); got != 5*time.Millisecond {
		t.Fatalf("P100 = %v", got)
	}
}

func TestDurationsAddAfterSort(t *testing.T) {
	var d Durations
	d.Add(5)
	_ = d.Percentile(1)
	d.Add(10)
	if d.Percentile(1) != 10 {
		t.Fatal("Add after sort not re-sorted")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var d Durations
	for i := 1; i <= 100; i++ {
		d.Add(time.Duration(i))
	}
	if got := d.Percentile(0.95); got != 95 {
		t.Fatalf("P95 = %v, want 95", got)
	}
	if got := d.Percentile(0.99); got != 99 {
		t.Fatalf("P99 = %v, want 99", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value", "time")
	tb.AddRow("embed", 3.14159, 34*time.Millisecond)
	tb.AddRow("hash-longer-name", 48, 2*time.Second)
	tb.AddRow("ns", 1, 500*time.Nanosecond)
	tb.AddRow("us", 1, 42*time.Microsecond)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "3.14") {
		t.Fatalf("float not formatted:\n%s", out)
	}
	if !strings.Contains(out, "34.00ms") || !strings.Contains(out, "2.00s") ||
		!strings.Contains(out, "500ns") || !strings.Contains(out, "42.00µs") {
		t.Fatalf("durations not formatted:\n%s", out)
	}
	// Header and separator align.
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("misaligned separator:\n%s", out)
	}
}
