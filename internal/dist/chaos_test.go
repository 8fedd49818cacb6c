package dist

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"nodevar/internal/sampling"
)

// TestFrontendUnderNetworkChaos composes the seeded network
// injectors with the distributed frontend: every request to the worker
// fleet passes through a seeded injector that refuses connections,
// delays them, truncates response streams mid-frame and flaps whole
// hosts. The contract under all of that is absolute — every study
// returns the exact points an undisturbed in-process run produces
// (Float64bits equal), and no study ever fails. Worker loss shows up
// only as reroutes or, when the injector takes the whole fleet down for
// a moment, as a degraded locally-computed answer.
func TestFrontendUnderNetworkChaos(t *testing.T) {
	for _, seed := range []uint64{1, 7, 2015, 90125} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var urls []string
			for i := 0; i < 3; i++ {
				ts := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
				defer ts.Close()
				urls = append(urls, ts.URL)
			}

			sched := NetSchedule{
				Seed:          seed,
				RefuseRate:    0.20,
				LatencyRate:   0.20,
				LatencySec:    0.002,
				TruncateRate:  0.15,
				TruncateBytes: 256,
				FlapRate:      0.05,
			}
			inj, err := sched.Wrap(http.DefaultTransport)
			if err != nil {
				t.Fatal(err)
			}
			fe, err := NewFrontend(Config{
				Workers:         urls,
				Transport:       inj,
				ProbeInterval:   10 * time.Millisecond,
				ProbeTimeout:    200 * time.Millisecond,
				CheckpointEvery: 1,
				Seed:            seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			fe.Start(ctx)

			degraded := 0
			for i := 0; i < 6; i++ {
				cfg := testStudyConfig(seed + uint64(i)*1000003)

				want, err := sampling.CoverageStudyCtx(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, deg, err := fe.Coverage(context.Background(), cfg)
				if err != nil {
					t.Fatalf("study %d under chaos returned an error: %v", i, err)
				}
				if deg {
					degraded++
				}
				assertBitIdentical(t, i, got, want)
			}

			c := inj.Counts()
			if c.Refused+c.Truncated+c.Delayed+c.Flaps == 0 {
				t.Fatalf("injector never fired (counts %+v); the chaos run tested nothing", c)
			}
			t.Logf("seed %d: injector %+v, degraded answers %d/6", seed, c, degraded)
		})
	}
}

// assertBitIdentical fails unless got reproduces want with every float64
// bit-for-bit equal.
func assertBitIdentical(t *testing.T, study int, got, want []sampling.CoveragePoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("study %d: %d points, want %d", study, len(got), len(want))
	}
	for i := range got {
		if got[i].SampleSize != want[i].SampleSize || got[i].Level != want[i].Level ||
			got[i].Replicates != want[i].Replicates ||
			math.Float64bits(got[i].Coverage) != math.Float64bits(want[i].Coverage) ||
			math.Float64bits(got[i].MeanRelWidth) != math.Float64bits(want[i].MeanRelWidth) {
			t.Fatalf("study %d point %d drifted under chaos: got %+v want %+v", study, i, got[i], want[i])
		}
	}
}
