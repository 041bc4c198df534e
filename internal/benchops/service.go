// Package benchops is the retrying closed-loop lookup driver behind
// cmd/loadgen and, through it, `make service-smoke`: it exists to
// prove every request against a live overlayd ends in an answer or a
// typed, expected error. It measures nothing the repository reports —
// bench/ is the perf ledger (bench/README.md).
package benchops

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ServiceResult is the outcome census of one DriveLookups run against
// a hosted overlay. Latencies are client-observed round trips.
type ServiceResult struct {
	Clients         int
	DurationSeconds float64
	Lookups         int64
	LookupsPerSec   float64
	P50Ms           float64
	P95Ms           float64
	P99Ms           float64
	// Retries counts requests re-issued after backpressure or a
	// timeout; Backpressure the 429/503 responses absorbed by backoff;
	// StaleEndpoints the 410/404 answers for endpoints churn removed
	// (the driver refreshes its member pool and moves on); Timeouts
	// the per-request deadline expiries (client-side or a 504).
	Retries        int64
	Backpressure   int64
	StaleEndpoints int64
	Timeouts       int64
	// Errors counts answers outside the protocol: unexpected statuses,
	// malformed bodies, transport failures. A healthy run has zero —
	// every request must end in an answer or a typed, expected error.
	Errors int64
	// DrainStopped reports the run ended because the server announced
	// it was draining (or went away mid-drain) — the expected outcome
	// when load overlaps a SIGTERM, and an error otherwise.
	DrainStopped bool
}

// DriveConfig parameterizes DriveLookups.
type DriveConfig struct {
	// BaseURL is the server root (e.g. "http://127.0.0.1:8080");
	// OverlayID names the hosted overlay to hammer.
	BaseURL   string
	OverlayID string
	// Clients is the closed-loop concurrency (default 4): each client
	// keeps exactly one request in flight.
	Clients int
	// Total stops the run after that many successful lookups; Duration
	// stops it on the wall clock. At least one must be set; with both,
	// whichever trips first wins.
	Total    int64
	Duration time.Duration
	// Timeout is the per-request deadline (default 2s), enforced
	// client-side and passed to the server as ?timeout=.
	Timeout time.Duration
	// MaxBackoff caps the exponential retry backoff (default 500ms;
	// base 10ms, doubled per consecutive backpressure event, ±50%
	// jitter).
	MaxBackoff time.Duration
	// Seed drives endpoint selection and backoff jitter.
	Seed uint64
	// StopOnDrain makes a draining announcement (typed 503, or the
	// connection dropping afterwards) a clean stop instead of an
	// error — set when the run intentionally overlaps a shutdown.
	StopOnDrain bool
}

// memberPool is the shared, refreshable endpoint set: churn over the
// wire departs nodes mid-run, so clients reload it on staleness.
type memberPool struct {
	mu      sync.RWMutex
	members []int
}

func (p *memberPool) pick(r *rand.Rand) (int, int, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.members) < 2 {
		return 0, 0, false
	}
	i := r.Intn(len(p.members))
	j := r.Intn(len(p.members) - 1)
	if j >= i {
		j++
	}
	return p.members[i], p.members[j], true
}

func (p *memberPool) set(members []int) {
	p.mu.Lock()
	p.members = members
	p.mu.Unlock()
}

// FetchMembers loads an overlay's full member list over the wire.
func FetchMembers(client *http.Client, baseURL, id string) ([]int, error) {
	resp, err := client.Get(fmt.Sprintf("%s/v1/overlays/%s/nodes?pageSize=10000", baseURL, url.PathEscape(id)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("nodes listing: status %d: %s", resp.StatusCode, body)
	}
	var page struct {
		Nodes []int `json:"nodes"`
		Total int   `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return nil, err
	}
	return page.Nodes, nil
}

// DriveLookups runs the closed-loop load: Clients goroutines, each
// with one RouteLookup in flight, retrying 429/503/timeout responses
// with capped exponential backoff + jitter, refreshing the endpoint
// pool when churn departs a node, and classifying every single
// outcome — nothing is dropped on the floor.
func DriveLookups(cfg DriveConfig) (ServiceResult, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 500 * time.Millisecond
	}
	if cfg.Total <= 0 && cfg.Duration <= 0 {
		return ServiceResult{}, fmt.Errorf("benchops: DriveLookups needs Total or Duration")
	}
	client := &http.Client{Timeout: cfg.Timeout}
	pool := &memberPool{}
	members, err := FetchMembers(client, cfg.BaseURL, cfg.OverlayID)
	if err != nil {
		return ServiceResult{}, fmt.Errorf("benchops: initial member fetch: %w", err)
	}
	pool.set(members)

	var (
		stop      = make(chan struct{})
		stopOnce  sync.Once
		successes atomic.Int64
		retries   atomic.Int64
		backpr    atomic.Int64
		stale     atomic.Int64
		timeouts  atomic.Int64
		errs      atomic.Int64
		drained   atomic.Bool
	)
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	if cfg.Duration > 0 {
		timer := time.AfterFunc(cfg.Duration, halt)
		defer timer.Stop()
	}

	lookupURL := func(from, to int) string {
		return fmt.Sprintf("%s/v1/overlays/%s/lookup?from=%d&to=%d&timeout=%s",
			cfg.BaseURL, url.PathEscape(cfg.OverlayID), from, to, cfg.Timeout)
	}

	latCh := make([]([]float64), cfg.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(cfg.Seed) + int64(c)*7919))
			backoff := 10 * time.Millisecond
			sleep := func() {
				// Jittered, capped exponential backoff: 0.5–1.5× the
				// current step, doubled on each consecutive event.
				d := time.Duration(float64(backoff) * (0.5 + r.Float64()))
				select {
				case <-time.After(d):
				case <-stop:
				}
				if backoff < cfg.MaxBackoff {
					backoff *= 2
					if backoff > cfg.MaxBackoff {
						backoff = cfg.MaxBackoff
					}
				}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if cfg.Total > 0 && successes.Load() >= cfg.Total {
					halt()
					return
				}
				from, to, ok := pool.pick(r)
				if !ok {
					errs.Add(1)
					halt()
					return
				}
				t0 := time.Now()
				resp, err := client.Get(lookupURL(from, to))
				if err != nil {
					if cfg.StopOnDrain {
						// The server went away mid-drain: the clean stop
						// this run was told to expect.
						drained.Store(true)
						halt()
						return
					}
					timeouts.Add(1)
					retries.Add(1)
					sleep()
					continue
				}
				var body struct {
					Code string `json:"code"`
				}
				// Best-effort decode: only the typed code matters, and
				// an unreadable body on an error status still classifies
				// by status below.
				_ = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					latCh[c] = append(latCh[c], float64(time.Since(t0).Microseconds())/1000)
					successes.Add(1)
					backoff = 10 * time.Millisecond
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					if body.Code == "draining" && cfg.StopOnDrain {
						drained.Store(true)
						halt()
						return
					}
					backpr.Add(1)
					retries.Add(1)
					sleep()
				case http.StatusGone, http.StatusNotFound:
					// Churn departed an endpoint under us: reload the pool.
					stale.Add(1)
					if fresh, ferr := FetchMembers(client, cfg.BaseURL, cfg.OverlayID); ferr == nil && len(fresh) > 1 {
						pool.set(fresh)
					}
				case http.StatusGatewayTimeout:
					timeouts.Add(1)
					retries.Add(1)
					sleep()
				default:
					errs.Add(1)
					sleep()
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lats []float64
	for _, l := range latCh {
		lats = append(lats, l...)
	}
	sort.Float64s(lats)
	n := successes.Load()
	res := ServiceResult{
		Clients:         cfg.Clients,
		DurationSeconds: elapsed.Seconds(),
		Lookups:         n,
		Retries:         retries.Load(),
		Backpressure:    backpr.Load(),
		StaleEndpoints:  stale.Load(),
		Timeouts:        timeouts.Load(),
		Errors:          errs.Load(),
		DrainStopped:    drained.Load(),
	}
	if elapsed > 0 {
		res.LookupsPerSec = float64(n) / elapsed.Seconds()
	}
	res.P50Ms = Percentile(lats, 50)
	res.P95Ms = Percentile(lats, 95)
	res.P99Ms = Percentile(lats, 99)
	return res, nil
}

// Percentile reads the p-th percentile (nearest-rank) off a sorted
// sample; 0 for an empty one.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
