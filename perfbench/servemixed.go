package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/netip"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ripki/internal/rpki/vrp"
	"ripki/internal/rtr"
	"ripki/internal/serve"
	"ripki/internal/webworld"
)

// serve-mixed: a million-domain world served over HTTP on loopback, fed
// by Service.RunRTR from an in-process rtr.Server. Reads arrive open
// loop at a fixed rate, half POST /v1/validate batches and half GET
// /v1/domain/{name}, over one connection per CPU. Beside them a
// one-VRP update toggles a marker VRP at the cache every 100 ms, and a
// long-poll on /v1/events sees each snapshot publish it causes.
//
// A run sets the service up several times and measures an equal share
// of its time on each instance. On a shared VM one instance's reads and
// publishes run up to a fifth faster or slower than the next one's, set
// up seconds later in the same process, while they hold steady within
// an instance; pooling the instances averages that out.
const (
	serveDomains     = 1_000_000
	serveInstances   = 4
	serveReadRate    = 2000 // requests per second
	serveUpdateEvery = 100 * time.Millisecond
	serveBatch       = 8
	serveTemplates   = 1024
	serveNames       = 1024
	serveDeadline    = 2 * time.Second // an update not visible by then failed
	serveReadTimeout = 5 * time.Second
	serveSession     = 7
	markerASN        = 64496
)

// routeSpec is one route of a validate request, as the API spells it.
type routeSpec struct {
	Prefix string `json:"prefix"`
	ASN    uint32 `json:"asn"`
}

// routeResult and validateResponse mirror the API's answer.
type routeResult struct {
	Prefix string `json:"prefix"`
	ASN    uint32 `json:"asn"`
	State  string `json:"state"`
}

type validateResponse struct {
	Serial       uint64        `json:"serial"`
	Source       string        `json:"source"`
	SourceSerial uint32        `json:"source_serial"`
	Results      []routeResult `json:"results"`
}

// serveInputs are the requests, generated from the seed and the world,
// and the oracle the answers are checked against: the world's VRP set
// with and without the marker.
type serveInputs struct {
	batches    [][]routeSpec
	bodies     [][]byte
	names      []string
	marker     vrp.VRP
	markerSpec routeSpec
	base       *vrp.Set
	withMarker *vrp.Set
}

// serveInstance is one running service with its cache and listeners.
type serveInstance struct {
	svc     *serve.Service
	cache   *rtr.Server
	rtrAddr string
	httpSrv *http.Server
	url     string
	serial0 uint32 // cache serial with the marker absent

	rtrCancel context.CancelFunc
	rtrDone   chan error
	serveWG   sync.WaitGroup
}

// startServe builds the domain table, starts the cache, the HTTP API
// and the RTR session, and returns once the first RTR snapshot is
// published.
func startServe(w *webworld.World, tr *tracer, trace int) (*serveInstance, error) {
	t0 := time.Now()
	dt, err := serve.BuildDomainTable(w)
	if err != nil {
		return nil, err
	}
	tr.add("serve.table_build", t0, time.Now(), -1, trace)
	si := &serveInstance{svc: serve.New(dt)}
	si.cache = rtr.NewServer(w.Validation().VRPs.Clone(), serveSession)
	si.cache.Logf = func(string, ...any) {}
	si.serial0 = si.cache.Serial()
	rtrLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	si.rtrAddr = rtrLn.Addr().String()
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rtrLn.Close()
		return nil, err
	}
	si.url = "http://" + httpLn.Addr().String()
	si.httpSrv = &http.Server{Handler: si.svc.Handler()}
	si.serveWG.Add(2)
	go func() { defer si.serveWG.Done(); si.cache.Serve(rtrLn) }()
	go func() { defer si.serveWG.Done(); si.httpSrv.Serve(httpLn) }()
	if err := si.startRTR(si.rtrAddr); err != nil {
		si.close()
		return nil, err
	}
	return si, nil
}

// startRTR runs the service's RTR session against addr and waits for a
// snapshot synced over it.
func (si *serveInstance) startRTR(addr string) error {
	ctx, cancel := context.WithCancel(context.Background())
	si.rtrCancel = cancel
	si.rtrDone = make(chan error, 1)
	before := uint64(0)
	if sn := si.svc.Current(); sn != nil {
		before = sn.Serial
	}
	go func() { si.rtrDone <- si.svc.RunRTR(ctx, addr) }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if sn := si.svc.Current(); sn != nil && sn.Serial > before && sn.Source == "rtr" {
			return nil
		}
		select {
		case err := <-si.rtrDone:
			si.rtrDone <- err
			return fmt.Errorf("RTR session ended before its first publish: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return errors.New("no RTR snapshot published within 60s")
		}
	}
}

func (si *serveInstance) stopRTR() error {
	if si.rtrCancel == nil {
		return nil
	}
	si.rtrCancel()
	si.rtrCancel = nil
	return <-si.rtrDone
}

func (si *serveInstance) close() {
	si.stopRTR()
	si.httpSrv.Close()
	si.cache.Close()
	si.serveWG.Wait()
}

// markerPresent says whether the cache held the marker at serial k: it
// starts absent and every update toggles it and bumps the serial.
func (si *serveInstance) markerPresent(k uint32) bool { return (k-si.serial0)%2 == 1 }

func (in *serveInputs) oracle(si *serveInstance, k uint32) *vrp.Set {
	if si.markerPresent(k) {
		return in.withMarker
	}
	return in.base
}

// makeServeInputs draws the request mix from the world: validate
// batches mixing valid, invalid and notfound routes (a quarter of them
// carrying the marker route too) and domain names across all ranks.
func makeServeInputs(w *webworld.World, seed int64) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	base := w.Validation().VRPs.Clone()
	in := &serveInputs{base: base}
	for _, s := range []string{"198.18.0.0/24", "198.51.100.0/24", "203.0.113.0/24", "192.0.2.0/24"} {
		p := netip.MustParsePrefix(s)
		if base.Validate(p, markerASN) == vrp.NotFound {
			in.marker = vrp.VRP{Prefix: p, MaxLength: p.Bits(), ASN: markerASN}
			break
		}
	}
	if !in.marker.Prefix.IsValid() {
		return nil, errors.New("no uncovered marker prefix")
	}
	in.markerSpec = routeSpec{Prefix: in.marker.Prefix.String(), ASN: markerASN}
	in.withMarker = base.Clone()
	if err := in.withMarker.Add(in.marker); err != nil {
		return nil, err
	}

	var pools [3][]routeSpec // by vrp.State order below
	classify := func(p netip.Prefix, asn uint32) {
		switch base.Validate(p, asn) {
		case vrp.Valid:
			pools[0] = append(pools[0], routeSpec{p.String(), asn})
		case vrp.Invalid:
			pools[1] = append(pools[1], routeSpec{p.String(), asn})
		case vrp.NotFound:
			pools[2] = append(pools[2], routeSpec{p.String(), asn})
		}
	}
	for _, v := range base.All() {
		classify(v.Prefix, v.ASN)
		classify(v.Prefix, v.ASN+1)
	}
	for _, p := range w.RoutedV4Prefixes() {
		if asn, ok := w.PinnedOriginOf(p); ok {
			classify(p, asn)
		}
	}
	for i, pool := range pools {
		if len(pool) == 0 {
			return nil, fmt.Errorf("no routes of validation class %d in the world", i)
		}
	}
	classes := [serveBatch]int{0, 0, 0, 1, 1, 2, 2, 2}
	for k := 0; k < serveTemplates; k++ {
		batch := make([]routeSpec, serveBatch)
		for j, class := range classes {
			pool := pools[class]
			batch[j] = pool[rng.Intn(len(pool))]
		}
		if k%4 == 0 {
			batch[serveBatch-1] = in.markerSpec
		}
		rng.Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })
		body, err := json.Marshal(map[string]any{"routes": batch})
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, batch)
		in.bodies = append(in.bodies, body)
	}
	entries := w.List.Entries()
	for i := 0; i < serveNames; i++ {
		in.names = append(in.names, entries[rng.Intn(len(entries))].Domain)
	}
	return in, nil
}

// --- one load window ----------------------------------------------------

// update is one marker toggle: the cache serial it produced and when
// UpdateDelta was called.
type update struct {
	serial uint32
	at     time.Time
}

// observation is one snapshot publish seen on the event feed.
type observation struct {
	sourceSerial uint32
	at           time.Time
}

// windowResult is what one load window measured.
type windowResult struct {
	readMS      []float64 // by request index, from its scheduled send
	reads, bad  int
	lastDone    time.Time
	start       time.Time
	schedLagMax time.Duration
	updates     []update
	visibleMS   []float64
	invisible   int
	readbacks   int
	answers     map[string][32]byte
	observed    []observation // publishes seen on the feed, in order
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: serveReadTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// runWindow offers reads open loop for dur while the updater toggles the
// marker, and matches every update to the publish that made it visible.
// It returns the failed output checks beside the result.
func runWindow(si *serveInstance, in *serveInputs, dur time.Duration) (*windowResult, []string, error) {
	n := int(serveReadRate * dur.Seconds())
	period := time.Second / serveReadRate
	res := &windowResult{answers: make(map[string][32]byte), readMS: make([]float64, n)}

	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	var problems []string
	var mu sync.Mutex
	fail := func(format string, args ...any) {
		mu.Lock()
		if len(problems) < 20 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}

	// The watcher starts at the feed's current end.
	watcher := newHTTPClient()
	cursor, err := feedEnd(watchCtx, watcher, si.url)
	if err != nil {
		return nil, nil, err
	}
	var seenSerial atomic.Uint32 // the newest source serial seen published
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for watchCtx.Err() == nil {
			evs, next, err := feedWait(watchCtx, watcher, si.url, cursor)
			seen := time.Now()
			if err != nil {
				if watchCtx.Err() == nil {
					fail("event feed: %v", err)
				}
				return
			}
			cursor = next
			for _, ev := range evs {
				if ev.EventType != "serve.snapshot_publish" {
					continue
				}
				k, err := strconv.ParseUint(ev.Attributes["source_serial"], 10, 32)
				if err != nil {
					fail("publish event without source_serial: %v", ev.Attributes)
					continue
				}
				res.observed = append(res.observed, observation{uint32(k), seen})
				seenSerial.Store(max(seenSerial.Load(), uint32(k)))
				if msg := readBackMarker(watcher, si, in, uint32(k)); msg != "" {
					fail("%s", msg)
				}
				res.readbacks++
			}
		}
	}()

	// Far enough ahead for the load generator to start.
	res.start = time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup

	// Updater: one marker toggle per interval, open loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		present := si.markerPresent(si.cache.Serial())
		for u := 0; ; u++ {
			due := res.start.Add(time.Duration(u) * serveUpdateEvery)
			if due.After(res.start.Add(dur)) {
				return
			}
			time.Sleep(time.Until(due))
			want := si.cache.Serial() + 1
			at := time.Now()
			if present {
				si.cache.UpdateDelta(nil, []vrp.VRP{in.marker})
			} else {
				si.cache.UpdateDelta([]vrp.VRP{in.marker}, nil)
			}
			present = !present
			if got := si.cache.Serial(); got != want {
				fail("update %d: cache serial %d, want %d", u, got, want)
			}
			res.updates = append(res.updates, update{want, at})
		}
	}()

	// Reads: the load generator process offers them on schedule.
	var load *loadReport
	var loadErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		load, loadErr = runLoad(&loadJob{
			URL:      si.url,
			Start:    res.start.UnixNano(),
			Period:   period,
			N:        n,
			Conns:    runtime.NumCPU(),
			Validate: in.bodies,
			Names:    in.names,
		})
	}()
	wg.Wait()

	// Let the watcher see the last update, then stop it.
	last := res.updates[len(res.updates)-1]
	for wait := time.Now().Add(serveDeadline); seenSerial.Load() < last.serial && time.Now().Before(wait); {
		time.Sleep(5 * time.Millisecond)
	}
	stopWatch()
	<-watchDone

	if loadErr != nil {
		return nil, nil, loadErr
	}
	res.schedLagMax = load.LagMax
	res.lastDone = time.Unix(0, load.Last)
	for i, lr := range load.Results {
		res.reads++
		res.readMS[i] = ms(lr.Latency)
		if lr.Status != http.StatusOK {
			res.bad++
			continue
		}
		key, norm, err := checkAnswer(i, lr.Body, si, in)
		if err != nil {
			fail("%s: %v", key, err)
			continue
		}
		h := sha256.Sum256(norm)
		if prev, ok := res.answers[key]; ok && prev != h {
			fail("request %s answered differently at two times", key)
		}
		res.answers[key] = h
	}

	// Each update is visible at the first publish of its serial or a
	// later one.
	for _, u := range res.updates {
		seen := false
		for _, o := range res.observed {
			if o.sourceSerial >= u.serial {
				if d := o.at.Sub(u.at); d <= serveDeadline {
					res.visibleMS = append(res.visibleMS, ms(d))
					seen = true
				}
				break
			}
		}
		if !seen {
			res.invisible++
		}
	}
	return res, problems, nil
}

// perSecondP99 is the read p99 of each second of the schedule (2,000
// reads, 20 beyond the p99). Their median is the reported p99: a run's
// one or two stalls that happen to coincide with a GC cycle move it
// little, while a change that slows every publish or read moves it. A
// window shorter than a second gives its whole p99.
func perSecondP99(readMS []float64) []float64 {
	var out []float64
	for lo := 0; lo < len(readMS); lo += serveReadRate {
		hi := min(lo+serveReadRate, len(readMS))
		if hi-lo < serveReadRate && lo > 0 {
			break
		}
		out = append(out, quantile(slices.Clone(readMS[lo:hi]), 0.99))
	}
	return out
}

// checkAnswer checks the answer to request i and returns the request's
// key and the part of the answer that must not depend on timing.
func checkAnswer(i int, body []byte, si *serveInstance, in *serveInputs) (string, []byte, error) {
	if i%2 == 0 {
		k := (i / 2) % len(in.batches)
		norm, err := checkValidate(body, in.batches[k], si, in)
		return "v" + strconv.Itoa(k), norm, err
	}
	k := (i / 2) % len(in.names)
	norm, err := checkDomain(body, in.names[k], in)
	return "d" + strconv.Itoa(k), norm, err
}

// checkValidate compares every result with the oracle at the answer's
// source serial, and returns the answer without its marker route or
// serials (the part that must not depend on timing).
func checkValidate(body []byte, batch []routeSpec, si *serveInstance, in *serveInputs) ([]byte, error) {
	var vr validateResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		return nil, err
	}
	if vr.Source != "rtr" || len(vr.Results) != len(batch) {
		return nil, fmt.Errorf("answer from source %q with %d results for %d routes", vr.Source, len(vr.Results), len(batch))
	}
	oracle := in.oracle(si, vr.SourceSerial)
	var norm bytes.Buffer
	for j, got := range vr.Results {
		spec := batch[j]
		p, err := netip.ParsePrefix(spec.Prefix)
		if err != nil {
			return nil, err
		}
		want := serve.StateToken(oracle.Validate(p, spec.ASN))
		if got.Prefix != spec.Prefix || got.ASN != spec.ASN || got.State != want {
			return nil, fmt.Errorf("route %s AS%d at serial %d: got %s %s AS%d, want %s",
				spec.Prefix, spec.ASN, vr.SourceSerial, got.State, got.Prefix, got.ASN, want)
		}
		if spec != in.markerSpec {
			fmt.Fprintf(&norm, "%s %d %s\n", got.Prefix, got.ASN, got.State)
		}
	}
	return norm.Bytes(), nil
}

// checkDomain checks a domain verdict's routes against the oracle
// (domain routes never fall under the marker, so the world's VRPs
// decide them at every serial) and returns it with its serial zeroed.
func checkDomain(body []byte, name string, in *serveInputs) ([]byte, error) {
	var dv serve.DomainVerdict
	if err := json.Unmarshal(body, &dv); err != nil {
		return nil, err
	}
	if dv.Domain != name {
		return nil, fmt.Errorf("asked for %s, answered %s", name, dv.Domain)
	}
	for _, v := range []serve.VariantVerdict{dv.WWW, dv.Apex} {
		for _, rr := range v.Routes {
			p, err := netip.ParsePrefix(rr.Prefix)
			if err != nil {
				return nil, err
			}
			if p.Overlaps(in.marker.Prefix) {
				return nil, fmt.Errorf("%s: route %s overlaps the marker", name, rr.Prefix)
			}
			if want := serve.StateToken(in.base.Validate(p, rr.ASN)); rr.State != want {
				return nil, fmt.Errorf("%s: route %s AS%d %s, want %s", name, rr.Prefix, rr.ASN, rr.State, want)
			}
		}
	}
	dv.Serial = 0
	return json.Marshal(dv)
}

// readBackMarker validates the marker route after the publish of serial
// k and checks the answer against the marker's state at the serial that
// answered (k or later).
func readBackMarker(c *http.Client, si *serveInstance, in *serveInputs, k uint32) string {
	body, _ := json.Marshal(in.markerSpec)
	resp, err := c.Post(si.url+"/v1/validate", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Sprintf("marker read-back: %v", err)
	}
	defer resp.Body.Close()
	var vr validateResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil || len(vr.Results) != 1 {
		return fmt.Sprintf("marker read-back: status %d, %v", resp.StatusCode, err)
	}
	want := vrp.NotFound
	if si.markerPresent(vr.SourceSerial) {
		want = vrp.Valid
	}
	if vr.SourceSerial < k || vr.Results[0].State != serve.StateToken(want) {
		return fmt.Sprintf("marker read-back after serial %d: %s at serial %d, want %s",
			k, vr.Results[0].State, vr.SourceSerial, serve.StateToken(want))
	}
	return ""
}

type feedEvent struct {
	EventType  string            `json:"event_type"`
	Attributes map[string]string `json:"attributes"`
}

type feedPage struct {
	Next   uint64      `json:"next"`
	Events []feedEvent `json:"events"`
}

func getFeed(ctx context.Context, c *http.Client, url string) (*feedPage, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/events: status %d", resp.StatusCode)
	}
	var page feedPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return nil, err
	}
	return &page, nil
}

// feedEnd pages through the feed and returns the cursor after its last
// event.
func feedEnd(ctx context.Context, c *http.Client, base string) (uint64, error) {
	var cursor uint64
	for {
		page, err := getFeed(ctx, c, fmt.Sprintf("%s/v1/events?since=%d", base, cursor))
		if err != nil {
			return 0, err
		}
		if len(page.Events) == 0 {
			return cursor, nil
		}
		cursor = page.Next
	}
}

// feedWait long-polls for the events after cursor.
func feedWait(ctx context.Context, c *http.Client, base string, cursor uint64) ([]feedEvent, uint64, error) {
	page, err := getFeed(ctx, c, fmt.Sprintf("%s/v1/events?since=%d&wait=1s", base, cursor))
	if err != nil {
		return nil, cursor, err
	}
	return page.Events, page.Next, nil
}

// --- the workload --------------------------------------------------------

func runServeMixed(b *bench) (*report, error) {
	rep := newReport()
	tally := newServeTally()
	window := b.seconds / serveInstances

	// Each instance: generate the world, build the table, start the
	// service and wait for its first RTR snapshot (the set-up), then,
	// untraced, measure a window on it. The world is the same every time,
	// so the inputs are drawn once. The traced run measures only the last
	// instance.
	var si *serveInstance
	var in *serveInputs
	var setups, readMS, perSecond, visibleMS []float64
	var answered int
	var measured time.Duration
	for i := 0; i < serveInstances; i++ {
		if si != nil {
			// Return the last instance's world and table to the OS, so
			// instances do not stack up in the resident set.
			si.close()
			si = nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		w, err := webworld.Generate(webworld.Config{Seed: mix(b.seed, 0), Domains: serveDomains})
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		w.Validation()
		b.tr.add("webworld.generate", t0, t1, -1, i)
		if si, err = startServe(w, b.tr, i); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if in == nil {
			if in, err = makeServeInputs(w, mix(b.seed, 1)); err != nil {
				si.close()
				return nil, err
			}
		}
		runtime.GC()
		if b.traced {
			continue
		}

		gs := startGoStats()
		res, problems, err := runWindow(si, in, window)
		if err != nil {
			si.close()
			return nil, err
		}
		gs.add(rep)
		tally.add(rep, res, problems)
		answered += res.reads - res.bad
		measured += res.lastDone.Sub(res.start)
		perSecond = append(perSecond, perSecondP99(res.readMS)...)
		readMS = append(readMS, res.readMS...)
		visibleMS = append(visibleMS, res.visibleMS...)
	}
	defer si.close()
	rep.metrics["setup_s"] = median(setups)
	rep.note("setup_s %.3f s (median of %d)", rep.metrics["setup_s"], len(setups))

	if b.traced {
		return traceServeMixed(b, rep, tally, si, in)
	}
	rep.digest = tally.digest()
	rep.note("go: %.0f MB allocated, %.0f GC cycles, %.3f ms GC pause in the measured windows",
		rep.metrics["go.alloc_mb"], rep.metrics["go.gc_cycles"], rep.metrics["go.gc_pause_ms"])
	rep.metrics["throughput_per_s"] = float64(answered) / measured.Seconds()
	rep.metrics["latency_p99_ms"] = median(perSecond)
	rep.metrics["visible_p50_ms"] = quantile(visibleMS, 0.50)
	rep.metrics["visible_p90_ms"] = quantile(visibleMS, 0.90)
	rep.metrics["latency_p50_ms"] = quantile(readMS, 0.50)
	rep.note("read_p50_ms %.3f ms (n=%d over %d instances at %d req/s offered, %.1f req/s answered), from scheduled send",
		rep.metrics["latency_p50_ms"], len(readMS), serveInstances, serveReadRate, rep.metrics["throughput_per_s"])
	rep.note("read_p99_ms %.3f ms: median of %d per-second p99s (n=%d each) over %d instances; pooled p99 %.3f ms",
		rep.metrics["latency_p99_ms"], len(perSecond), serveReadRate, serveInstances, quantile(readMS, 0.99))
	rep.note("update_visible_p50_ms %.3f ms, update_visible_p90_ms %.3f ms (n=%d of %d updates)",
		rep.metrics["visible_p50_ms"], rep.metrics["visible_p90_ms"], len(visibleMS), tally.updates)
	rep.note("load.sched_lag_max_ms %.3f ms; %d marker read-backs", rep.metrics["load.sched_lag_max_ms"], tally.readbacks)
	return rep, nil
}

// serveTally adds up a run's windows: operations, failures, problems
// and the answers, which must agree across windows and instances.
type serveTally struct {
	answers            map[string][32]byte
	updates, readbacks int
}

func newServeTally() *serveTally { return &serveTally{answers: make(map[string][32]byte)} }

// add adds a window's operations, failures, problems and answers to the
// report.
func (t *serveTally) add(rep *report, res *windowResult, problems []string) {
	rep.attempted += int64(res.reads + len(res.updates))
	rep.failed += int64(res.bad + res.invisible)
	t.updates += len(res.updates)
	t.readbacks += res.readbacks
	for _, p := range problems {
		rep.problem("%s", p)
	}
	if res.bad > 0 {
		rep.problem("%d of %d reads failed or timed out", res.bad, res.reads)
	}
	if res.invisible > 0 {
		rep.problem("%d of %d updates not visible within %s", res.invisible, len(res.updates), serveDeadline)
	}
	for k, h := range res.answers {
		if prev, ok := t.answers[k]; ok && prev != h {
			rep.problem("request %s answered differently in two windows", k)
		}
		t.answers[k] = h
	}
	rep.metrics["load.sched_lag_max_ms"] = max(rep.metrics["load.sched_lag_max_ms"], ms(res.schedLagMax))
}

// digest fingerprints every distinct request's answer.
func (t *serveTally) digest() string {
	keys := make([]string, 0, len(t.answers))
	for k := range t.answers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var dig digester
	for _, k := range keys {
		h := t.answers[k]
		dig.add(append([]byte(k), h[:]...))
	}
	return fmt.Sprintf("%s (%d distinct requests)", dig.String(), len(keys))
}

// traceServeMixed is the traced run: half the time untraced, then the
// RTR session is moved behind a byte relay that stamps every End-of-Data
// PDU, and the other half runs traced, with /metrics scraped around it.
// The relay splits each update's visibility into the wire sync and the
// publish.
func traceServeMixed(b *bench, rep *report, tally *serveTally, si *serveInstance, in *serveInputs) (*report, error) {
	half := b.seconds / 2
	plain, problems, err := runWindow(si, in, half)
	if err != nil {
		return nil, err
	}
	tally.add(rep, plain, problems)

	relay, err := startRelay(si.rtrAddr)
	if err != nil {
		return nil, err
	}
	defer relay.close()
	if err := si.stopRTR(); err != nil {
		return nil, fmt.Errorf("stopping RTR session: %w", err)
	}
	if err := si.startRTR(relay.addr); err != nil {
		return nil, err
	}
	before, err := scrape(si.url)
	if err != nil {
		return nil, err
	}
	gs := startGoStats()
	traced, problems, err := runWindow(si, in, half)
	if err != nil {
		return nil, err
	}
	eod := relay.eod.snapshot()
	gs.report(rep)
	after, err := scrape(si.url)
	if err != nil {
		return nil, err
	}
	tally.add(rep, traced, problems)
	rep.digest = tally.digest()

	// Split each update: cache update → End-of-Data at the relay →
	// publish seen on the feed.
	tr := b.tr
	var syncMS, publishMS []float64
	for u, up := range traced.updates {
		var eodAt time.Time
		var eodSerial uint32
		for s, at := range eod {
			if s >= up.serial && (eodAt.IsZero() || s < eodSerial) {
				eodAt, eodSerial = at, s
			}
		}
		var seenAt time.Time
		for _, o := range traced.observed {
			if o.sourceSerial >= up.serial {
				seenAt = o.at
				break
			}
		}
		if eodAt.IsZero() || seenAt.IsZero() {
			continue
		}
		root := tr.add("update", up.at, seenAt, -1, u)
		tr.add("rtr.sync", up.at, eodAt, root, u)
		tr.add("serve.publish", eodAt, seenAt, root, u)
		syncMS = append(syncMS, ms(eodAt.Sub(up.at)))
		publishMS = append(publishMS, ms(seenAt.Sub(eodAt)))
	}
	rep.metrics["rtr.sync_ms"] = quantile(syncMS, 0.5)
	rep.metrics["serve.publish_ms"] = quantile(publishMS, 0.5)
	rep.metrics["trace.overhead_ratio"] = quantile(traced.visibleMS, 0.5) / quantile(plain.visibleMS, 0.5)

	for _, ep := range []string{"validate", "domain"} {
		n := after.get("ripki_serve_request_duration_seconds_count", ep) - before.get("ripki_serve_request_duration_seconds_count", ep)
		sum := after.get("ripki_serve_request_duration_seconds_sum", ep) - before.get("ripki_serve_request_duration_seconds_sum", ep)
		if n > 0 {
			rep.metrics["serve.handler_"+ep+"_us"] = sum / n * 1e6
		}
		rep.metrics["serve.requests"] += after.get("ripki_serve_requests_total", ep) - before.get("ripki_serve_requests_total", ep)
		rep.metrics["serve.errors"] += after.get("ripki_serve_request_errors_total", ep) - before.get("ripki_serve_request_errors_total", ep)
	}

	// The lookup layer alone, on the same inputs, from the final snapshot.
	sn := si.svc.Current()
	var vTime, dTime time.Duration
	for k, batch := range in.batches {
		t0 := time.Now()
		for _, spec := range batch {
			sn.ValidateRoute(netip.MustParsePrefix(spec.Prefix), spec.ASN)
		}
		t1 := time.Now()
		tr.add("serve.lookup_validate", t0, t1, -1, k)
		vTime += t1.Sub(t0)
	}
	for k, name := range in.names {
		t0 := time.Now()
		sn.Domain(name)
		t1 := time.Now()
		tr.add("serve.lookup_domain", t0, t1, -1, k)
		dTime += t1.Sub(t0)
	}
	rep.metrics["serve.lookup_validate_us"] = us(vTime) / float64(len(in.batches))
	rep.metrics["serve.lookup_domain_us"] = us(dTime) / float64(len(in.names))
	rep.metrics["serve.table_build_ms"] = tr.meanMS("serve.table_build")
	rep.metrics["webworld.generate_ms"] = tr.meanMS("webworld.generate")
	rep.note("traced window: rtr.sync_ms p50 %.3f, serve.publish_ms p50 %.3f (n=%d); overhead ratio %.3f",
		rep.metrics["rtr.sync_ms"], rep.metrics["serve.publish_ms"], len(syncMS), rep.metrics["trace.overhead_ratio"])
	return rep, nil
}

// --- the traced RTR relay -----------------------------------------------

// eodLog records when each End-of-Data PDU passed the relay, by serial.
type eodLog struct {
	mu sync.Mutex
	at map[uint32]time.Time
}

func (l *eodLog) stamp(serial uint32, at time.Time) {
	l.mu.Lock()
	if _, ok := l.at[serial]; !ok {
		l.at[serial] = at
	}
	l.mu.Unlock()
}

func (l *eodLog) snapshot() map[uint32]time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[uint32]time.Time, len(l.at))
	for k, v := range l.at {
		out[k] = v
	}
	return out
}

// relay forwards bytes between the service's RTR client and the cache
// unchanged, parsing only the cache's PDU headers to stamp End-of-Data.
type relay struct {
	ln   net.Listener
	addr string
	eod  *eodLog
	wg   sync.WaitGroup
	mu   sync.Mutex
	open []net.Conn
}

func startRelay(upstream string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, addr: ln.Addr().String(), eod: &eodLog{at: make(map[uint32]time.Time)}}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				down.Close()
				continue
			}
			r.mu.Lock()
			r.open = append(r.open, down, up)
			r.mu.Unlock()
			r.wg.Add(2)
			go func() {
				defer r.wg.Done()
				io.Copy(up, down)
				up.Close()
			}()
			go func() {
				defer r.wg.Done()
				r.forward(down, up)
				down.Close()
			}()
		}
	}()
	return r, nil
}

// forward copies cache→client PDUs one at a time.
func (r *relay) forward(dst io.Writer, src io.Reader) {
	var hdr [8]byte
	buf := make([]byte, 0, 64)
	for {
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return
		}
		at := time.Now()
		n := int(uint32(hdr[4])<<24 | uint32(hdr[5])<<16 | uint32(hdr[6])<<8 | uint32(hdr[7]))
		if n < len(hdr) || n > 1<<16 {
			return
		}
		buf = append(buf[:0], hdr[:]...)
		buf = buf[:n]
		if _, err := io.ReadFull(src, buf[len(hdr):]); err != nil {
			return
		}
		if hdr[1] == rtr.TypeEndOfData {
			if pdu, _, err := rtr.Decode(buf); err == nil {
				if e, ok := pdu.(*rtr.EndOfData); ok {
					r.eod.stamp(e.Serial, at)
				}
			}
		}
		if _, err := dst.Write(buf); err != nil {
			return
		}
	}
}

func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.open {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// --- /metrics scrape ------------------------------------------------------

// scrapeResult holds the sample values of one scrape keyed by family
// name and endpoint label.
type scrapeResult map[string]float64

func (s scrapeResult) get(family, endpoint string) float64 {
	return s[family+`{endpoint="`+endpoint+`"}`]
}

func scrape(base string) (scrapeResult, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := scrapeResult{}
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		i := bytes.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(string(line[i+1:]), 64)
		if err != nil {
			continue
		}
		out[string(line[:i])] = v
	}
	return out, nil
}
