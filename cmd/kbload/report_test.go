package main

import (
	"testing"
	"time"
)

func TestPercentiles(t *testing.T) {
	samples := make([]time.Duration, 1000)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond
	}
	st := percentiles("search", samples, 10*time.Second, 3, 7)
	if st.Requests != 1000 || st.Errors != 3 || st.Shed != 7 {
		t.Fatalf("counts wrong: %+v", st)
	}
	if st.ThroughputRPS != 100 {
		t.Fatalf("throughput = %v, want 100", st.ThroughputRPS)
	}
	if st.P50MS < 490 || st.P50MS > 510 {
		t.Fatalf("p50 = %vms, want ~500", st.P50MS)
	}
	if st.P99MS < 980 || st.P99MS > 1000 {
		t.Fatalf("p99 = %vms, want ~990", st.P99MS)
	}
	if st.MaxMS != 1000 {
		t.Fatalf("max = %vms, want 1000", st.MaxMS)
	}
}

// TestGate pins the exit codes CI relies on: 1 on a violated
// -max-error-rate or -max-p99 or an empty soak, 0 otherwise (shed
// requests are not errors).
func TestGate(t *testing.T) {
	ok := &loadReport{Ops: []opStats{
		{Op: "search", Requests: 900, Shed: 50, P99MS: 8},
		{Op: "update", Requests: 100, P99MS: 12},
	}}
	oneErr := &loadReport{Ops: []opStats{{Op: "search", Requests: 99, Errors: 1, P99MS: 8}}}
	for _, tc := range []struct {
		name       string
		r          *loadReport
		maxErrRate float64
		maxP99     time.Duration
		want       int
	}{
		{"clean", ok, 0, 5 * time.Second, 0},
		{"gates disabled", oneErr, -1, 0, 0},
		{"error rate violated", oneErr, 0, 0, 1},
		{"error rate within budget", oneErr, 0.01, 0, 0},
		{"p99 violated", ok, 0, 10 * time.Millisecond, 1},
		{"no requests", &loadReport{Ops: []opStats{{Op: "search"}}}, -1, 0, 1},
	} {
		if got := gate(tc.r, tc.maxErrRate, tc.maxP99); got != tc.want {
			t.Errorf("%s: gate = %d, want %d", tc.name, got, tc.want)
		}
	}
}
