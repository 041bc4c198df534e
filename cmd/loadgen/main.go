// Command loadgen is the retrying closed-loop load driver for
// overlayd: -clients goroutines each keep one RouteLookup in flight
// against a hosted overlay, with per-request timeouts, capped
// exponential backoff + jitter on 429/503 backpressure and timeouts,
// and endpoint-pool refresh when churn departs a node mid-run. A
// -plan specification is applied over the wire at the half-way point,
// so the measured load includes epochs repairing under an adversary.
//
// The run reports lookups/sec, p50/p95/p99 latency, and the full
// outcome census (retries, backpressure, stale endpoints, timeouts,
// errors).
//
// Exit status: 0 when every request ended in an answer or an
// expected, typed error; 1 under -strict when any error was dropped
// on the floor, or under -expect-drain when the server never
// announced a drain.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"overlay/internal/benchops"
)

// createOverlay provisions the target overlay when -overlay is empty.
// Builds (message-level ones especially) run on build time, not
// lookup time, so the request carries its own deadline.
func createOverlay(base string, body map[string]any) (string, error) {
	client := &http.Client{Timeout: 5 * time.Minute}
	buf, _ := json.Marshal(body)
	resp, err := client.Post(base+"/v1/overlays?timeout=4m", "application/json", bytes.NewReader(buf))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("create: status %d: %s", resp.StatusCode, msg)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", err
	}
	return info.ID, nil
}

// applyPlan posts a ParsePlan spec to the overlay's plan endpoint.
// One plan request applies every epoch it schedules, so it runs under
// its own generous deadline, not the per-lookup timeout: a faulted
// measured epoch legitimately climbs the recovery ladder for seconds.
func applyPlan(base, id, spec string) error {
	client := &http.Client{Timeout: 5 * time.Minute}
	buf, _ := json.Marshal(map[string]string{"spec": spec})
	resp, err := client.Post(base+"/v1/overlays/"+id+"/plan?timeout=4m", "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("plan: status %d: %s", resp.StatusCode, msg)
	}
	log.Printf("plan applied: %s", bytes.TrimSpace(msg))
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8080", "overlayd base URL (scheme optional)")
		overlayID   = flag.String("overlay", "", "target overlay id (empty = create one)")
		n           = flag.Int("n", 2048, "node count for a created overlay")
		topology    = flag.String("topology", "line", "input topology for a created overlay (line|ring)")
		msgLevel    = flag.Bool("message-level", false, "build the created overlay message-level (required for fault plans)")
		accounting  = flag.String("accounting", "", "patch-epoch accounting for the created overlay (charged|measured)")
		patchRetry  = flag.Int("patch-retries", 0, "extra patch rungs on the created overlay's epoch recovery ladder")
		rebuildRtry = flag.Int("rebuild-retries", 0, "extra rebuild rungs on the created overlay's epoch recovery ladder")
		seed        = flag.Uint64("seed", 2021, "build seed for a created overlay; also drives client jitter")
		clients     = flag.Int("clients", 8, "closed-loop concurrency (one request in flight per client)")
		duration    = flag.Duration("duration", 10*time.Second, "run length (0 = run until -total)")
		total       = flag.Int64("total", 0, "stop after this many successful lookups (0 = run for -duration)")
		timeout     = flag.Duration("timeout", 2*time.Second, "per-request deadline")
		maxBackoff  = flag.Duration("max-backoff", 500*time.Millisecond, "cap on the exponential retry backoff")
		plan        = flag.String("plan", "", "ParsePlan spec applied over the wire at the run's half-way point")
		strict      = flag.Bool("strict", false, "exit 1 if any request ended in an unexpected error")
		expectDrain = flag.Bool("expect-drain", false, "the server is expected to drain mid-run; require the typed drain stop and exit 0 on it")
	)
	flag.Parse()

	base := strings.TrimRight(*addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	id := *overlayID
	if id == "" {
		var err error
		id, err = createOverlay(base, map[string]any{
			"name": "loadgen", "n": *n, "topology": *topology, "seed": *seed,
			"message_level": *msgLevel, "accounting": *accounting,
			"patch_retries": *patchRetry, "rebuild_retries": *rebuildRtry,
		})
		if err != nil {
			log.Fatalf("provision target overlay: %v", err)
		}
		log.Printf("created overlay %s (n=%d, %s, message_level=%v)", id, *n, *topology, *msgLevel)
	}

	// The plan is injected mid-run so the measured load overlaps the
	// epochs it schedules; the run then waits for the plan's verdict —
	// exiting early would cancel the request and roll the epochs back.
	var planDone chan struct{}
	var planTimer *time.Timer
	var planErr error
	if *plan != "" {
		delay := *duration / 2
		planDone = make(chan struct{})
		planTimer = time.AfterFunc(delay, func() {
			defer close(planDone)
			log.Printf("injecting plan at t=%s: %q", delay, *plan)
			if planErr = applyPlan(base, id, *plan); planErr != nil {
				log.Printf("plan injection: %v", planErr)
			}
		})
	}

	res, err := benchops.DriveLookups(benchops.DriveConfig{
		BaseURL:     base,
		OverlayID:   id,
		Clients:     *clients,
		Total:       *total,
		Duration:    *duration,
		Timeout:     *timeout,
		MaxBackoff:  *maxBackoff,
		Seed:        *seed,
		StopOnDrain: *expectDrain,
	})
	if err != nil {
		log.Fatalf("drive: %v", err)
	}
	if planTimer != nil && !planTimer.Stop() {
		// The injection fired: wait out its verdict.
		<-planDone
	}

	fmt.Printf("lookups:      %d in %.2fs (%.0f/s, %d clients)\n",
		res.Lookups, res.DurationSeconds, res.LookupsPerSec, res.Clients)
	fmt.Printf("latency ms:   p50 %.3f  p95 %.3f  p99 %.3f\n", res.P50Ms, res.P95Ms, res.P99Ms)
	fmt.Printf("retries:      %d (backpressure %d, timeouts %d, stale endpoints %d)\n",
		res.Retries, res.Backpressure, res.Timeouts, res.StaleEndpoints)
	fmt.Printf("errors:       %d\n", res.Errors)
	if res.DrainStopped {
		fmt.Println("stopped by server drain (expected)")
	}

	if *expectDrain && !res.DrainStopped {
		log.Fatal("FAIL: the server never announced a drain")
	}
	if *strict && res.Errors > 0 {
		log.Fatalf("FAIL: %d requests ended in unexpected errors", res.Errors)
	}
	if *strict && planErr != nil {
		log.Fatalf("FAIL: the injected plan did not apply: %v", planErr)
	}
	if *strict && res.Lookups == 0 && !res.DrainStopped {
		log.Fatal("FAIL: no lookup ever succeeded")
	}
}
