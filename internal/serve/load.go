// Synthetic load generator for the inference gateway. It is the
// measurement half of the serving story: tests use it to drive hundreds
// of concurrent clients against a trustddl-serve endpoint and account
// for every single request — exactly one response each, correct label,
// overload shed as 429 rather than absorbed into unbounded memory.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trustddl/trustddl/internal/mnist"
)

// LoadConfig parameterizes RunLoad.
type LoadConfig struct {
	// URL is the gateway base URL (e.g. "http://127.0.0.1:8088").
	URL string
	// Images are cycled across clients; request k of client c sends
	// Images[(c + k*Clients) % len(Images)].
	Images []mnist.Image
	// Expect, when non-empty, holds the reference label per image;
	// any 200 response disagreeing with it counts as Mismatched
	// (a cross-wired batch reply).
	Expect []int
	// Clients is the number of concurrent client goroutines.
	Clients int
	// RequestsPerClient is how many sequential requests each client
	// fires.
	RequestsPerClient int
	// Client overrides the HTTP client (default: shared transport with
	// per-host connection reuse sized to Clients).
	Client *http.Client
}

// LoadReport accounts for every request RunLoad sent. Drops or
// duplicates would show up as Sent ≠ OK+Rejected+Failed.
type LoadReport struct {
	Sent       int64         // requests fired
	OK         int64         // 200 with a parseable label
	Rejected   int64         // 429 (backpressure)
	Failed     int64         // transport errors and non-200/429 statuses
	Mismatched int64         // 200 whose label contradicts Expect
	Elapsed    time.Duration // wall clock for the whole run
}

// Accounted reports whether every request produced exactly one outcome.
func (r LoadReport) Accounted() bool {
	return r.Sent == r.OK+r.Rejected+r.Failed && r.Sent > 0
}

// RunLoad fires Clients×RequestsPerClient requests at the gateway and
// tallies the outcomes. It never fails the run on 429s — shedding under
// overload is the behaviour the load generator exists to observe.
func RunLoad(cfg LoadConfig) (LoadReport, error) {
	if cfg.Clients <= 0 || cfg.RequestsPerClient <= 0 {
		return LoadReport{}, fmt.Errorf("serve: load needs clients>0 and requests>0 (got %d, %d)", cfg.Clients, cfg.RequestsPerClient)
	}
	if len(cfg.Images) == 0 {
		return LoadReport{}, fmt.Errorf("serve: load needs at least one image")
	}
	if len(cfg.Expect) > 0 && len(cfg.Expect) != len(cfg.Images) {
		return LoadReport{}, fmt.Errorf("serve: %d expected labels for %d images", len(cfg.Expect), len(cfg.Images))
	}
	client := cfg.Client
	if client == nil {
		tr := &http.Transport{MaxIdleConns: cfg.Clients, MaxIdleConnsPerHost: cfg.Clients}
		client = &http.Client{Transport: tr, Timeout: 2 * time.Minute}
		defer tr.CloseIdleConnections()
	}

	// Pre-encode each distinct image once; clients share the bytes.
	bodies := make([][]byte, len(cfg.Images))
	for i, img := range cfg.Images {
		b, err := json.Marshal(Request{Pixels: img.Pixels[:]})
		if err != nil {
			return LoadReport{}, err
		}
		bodies[i] = b
	}

	var (
		rep LoadReport
		wg  sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < cfg.RequestsPerClient; k++ {
				idx := (c + k*cfg.Clients) % len(cfg.Images)
				atomic.AddInt64(&rep.Sent, 1)
				resp, err := client.Post(cfg.URL+"/infer", "application/json", bytes.NewReader(bodies[idx]))
				if err != nil {
					atomic.AddInt64(&rep.Failed, 1)
					continue
				}
				var out Response
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
					atomic.AddInt64(&rep.Rejected, 1)
				case resp.StatusCode != http.StatusOK || decErr != nil:
					atomic.AddInt64(&rep.Failed, 1)
				default:
					atomic.AddInt64(&rep.OK, 1)
					if len(cfg.Expect) > 0 && out.Label != cfg.Expect[idx] {
						atomic.AddInt64(&rep.Mismatched, 1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	return rep, nil
}
