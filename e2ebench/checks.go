package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"nodevar/internal/stats"
)

// flagshipNumbers must appear in every `repro -exp all` rendering.
var flagshipNumbers = []string{"398.7", "11503.3", "59.1", "581.93", "90.74", "774 MHz"}

// checkReproOutput accepts a pipeline rendering when it is byte-identical
// to the reference pass and the reference carries the paper's numbers.
func checkReproOutput(reference, got []byte) error {
	for _, n := range flagshipNumbers {
		if !bytes.Contains(reference, []byte(n)) {
			return fmt.Errorf("reference output lacks flagship number %q", n)
		}
	}
	if !bytes.Equal(reference, got) {
		return fmt.Errorf("output differs from the reference pass (%d vs %d bytes)", len(got), len(reference))
	}
	return nil
}

// checkStatus rejects anything but a 200 and any degraded answer.
func checkStatus(ex exchange) error {
	if ex.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", ex.status, truncate(ex.body))
	}
	if bytes.Contains(ex.body, []byte(`"degraded":true`)) {
		return fmt.Errorf("degraded answer: %s", truncate(ex.body))
	}
	return nil
}

// checkExact accepts a 200 whose body is byte-identical to want.
func checkExact(ex exchange, want []byte) error {
	if err := checkStatus(ex); err != nil {
		return err
	}
	if !bytes.Equal(ex.body, want) {
		return fmt.Errorf("body %s, want %s", truncate(ex.body), truncate(want))
	}
	return nil
}

// checkCache accepts a 200 whose X-Cache header is status.
func checkCache(ex exchange, status string) error {
	if err := checkStatus(ex); err != nil {
		return err
	}
	if got := ex.header.Get("X-Cache"); got != status {
		return fmt.Errorf("X-Cache %q, want %q", got, status)
	}
	return nil
}

// fleetView is the part of a fleet stats or samplesize body the checks
// read.
type fleetView struct {
	Samples *uint64  `json:"samples"`
	Mean    *float64 `json:"mean"`
}

func decodeFleetView(body []byte) (fleetView, error) {
	var v fleetView
	if err := json.Unmarshal(body, &v); err != nil {
		return v, fmt.Errorf("decoding fleet read: %w", err)
	}
	if v.Samples == nil || v.Mean == nil {
		return v, fmt.Errorf("fleet read lacks samples or mean: %s", truncate(body))
	}
	return v, nil
}

// checkFleetCount accepts a fleet read that counts exactly n samples.
func checkFleetCount(body []byte, n int) error {
	v, err := decodeFleetView(body)
	if err != nil {
		return err
	}
	if *v.Samples != uint64(n) {
		return fmt.Errorf("fleet read samples=%d, want %d", *v.Samples, n)
	}
	return nil
}

// checkFleetRead accepts a fleet read whose sample count and mean equal
// the batch statistics over the values the fleet accepted.
func checkFleetRead(body []byte, values []float64) error {
	if err := checkFleetCount(body, len(values)); err != nil {
		return err
	}
	v, _ := decodeFleetView(body)
	if mean, _ := stats.MeanStdDev(values); *v.Mean != mean {
		return fmt.Errorf("fleet read mean=%v, batch mean over the same %d values is %v", *v.Mean, len(values), mean)
	}
	return nil
}

// checkCount compares an exported work counter with the count the
// workload implies.
func checkCount(name string, got, want int64) error {
	if got != want {
		return fmt.Errorf("counter %s moved by %d, want %d", name, got, want)
	}
	return nil
}

func truncate(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 160 {
		return s[:160] + "..."
	}
	return s
}
