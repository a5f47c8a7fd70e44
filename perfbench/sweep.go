package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"zsim"
	"zsim/internal/campaign"
	"zsim/internal/serve"
)

// The zsimd-sweep service shape: two workers with the warm pool on, one
// pooled simulator per shape, so a second same-shape job that runs while the
// first holds the pooled simulator builds fresh (a miss) and every other
// lookup is a hit.
var sweepServer = serve.Options{Workers: 2, QueueDepth: 16, PoolSize: 3, PoolPerShape: 1}

const (
	campaignSeeds   = 16 // seed-axis length: 32 points per campaign over cores {16, 64}
	campaignQuota   = 4
	setupRepeats    = 11 // server set-ups per run; setup_s is their median
	jobPollInterval = time.Millisecond
	campaignPoll    = 2 * time.Millisecond
)

// sweepBase is client A's campaign base: a small tiled-IPC1 job at one host
// thread (cores are swept {16, 64}).
func sweepBase(scale float64) serve.JobRequest {
	return serve.JobRequest{
		Preset: "tiled", Tiles: 1, CoreModel: "ipc1",
		Workloads:   []serve.WorkloadSpec{{Name: "fluidanimate", Threads: 16, Blocks: max(int(25*scale), 1)}},
		HostThreads: 1,
	}
}

// sweepAxes derives the campaign's seed axis from the workload seed.
func sweepAxes(seed uint64, round int) campaign.Axes {
	seeds := make([]uint64, campaignSeeds)
	for i := range seeds {
		seeds[i] = seed*1_000_000 + uint64(round*campaignSeeds+i) + 1
	}
	return campaign.Axes{Cores: []int{16, 64}, Seeds: seeds}
}

// interactiveJob is client B's closed-loop job: a small normal-priority job.
func interactiveJob(seed uint64, i int, scale float64) serve.JobRequest {
	return serve.JobRequest{
		Preset:      "small",
		Workloads:   []serve.WorkloadSpec{{Name: "blackscholes", Threads: 4, Blocks: max(int(50*scale), 1)}},
		HostThreads: 1,
		Seed:        seed*1_000_000 + uint64(i) + 1,
		Priority:    "normal",
	}
}

// sweepShapes are the configurations the server prewarms: the campaign's two
// shapes and the interactive job's.
func sweepShapes() []*zsim.Config {
	c16 := zsim.TiledConfig(1, "ipc1")
	c64 := zsim.TiledConfig(1, "ipc1")
	c64.NumCores = 64
	c64.WeaveDomains = 0
	return []*zsim.Config{c16, c64, zsim.SmallConfig()}
}

// daemon is an in-process zsimd: a serve.Server behind net/http on loopback.
type daemon struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan error
}

// startDaemon starts the server, waits until /healthz answers and prewarms
// the pool: the set-up a zsimd deployment pays before its first job.
func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: serve.New(sweepServer), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	d.http = &http.Server{Handler: d.srv}
	go func() { d.done <- d.http.Serve(ln) }()
	resp, err := http.Get(d.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
		}
	}
	if err == nil {
		_, err = d.srv.Prewarm(sweepShapes())
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the HTTP server and the job service down and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.http.Shutdown(ctx) // error means a connection outlived the timeout; Close below ends it
	d.http.Close()
	<-d.done
	d.srv.Shutdown(10 * time.Second)
	http.DefaultClient.CloseIdleConnections()
}

// client is one HTTP client with a single connection; it spans every request
// when tracing.
type client struct {
	url string
	hc  *http.Client
	tr  *tracer
}

func newClient(url string, tr *tracer) *client {
	return &client{url: url, tr: tr, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

// call makes one request and decodes a JSON answer into out. route names
// the span. It returns the status code and the client-side duration.
func (c *client) call(method, path, route string, in, out any, parent int) (int, time.Duration, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, 0, err
		}
		body = bytes.NewReader(b)
	}
	sp := c.tr.begin(method+" "+route, parent)
	t0 := time.Now()
	req, err := http.NewRequest(method, c.url+path, body)
	if err != nil {
		return 0, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.tr.end(sp)
		return 0, time.Since(t0), err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	c.tr.end(sp)
	if err != nil {
		return resp.StatusCode, d, err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, d, fmt.Errorf("%s %s: %w", method, route, err)
		}
	}
	return resp.StatusCode, d, nil
}

// sweepStats is what the two clients measure during one window.
type sweepStats struct {
	mu        sync.Mutex
	ops       tally
	problems  []string
	instrs    float64 // simulated instructions of succeeded jobs and points
	runNanos  float64 // their host nanoseconds inside Run
	points    int
	campWall  time.Duration
	latencies []float64 // interactive job latency, ms
	submits   []float64 // POST /jobs, ms
	queueWait []float64 // Started - Submitted, ms
	service   []float64 // Finished - Started, ms
	sheds     int
	campSub   []float64 // POST /campaigns, ms
	campStat  []float64 // GET /campaigns/{id}, ms
	sampled   bool      // a campaign point was checked against the facade
}

func (s *sweepStats) fail(format string, args ...any) {
	s.mu.Lock()
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
	s.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// interactiveLoop is client B: a closed loop of interactive jobs until the
// deadline and at least minJobs jobs, each timed from POST /jobs to the
// terminal state seen by polling.
func interactiveLoop(c *client, seed uint64, scale float64, deadline time.Time, minJobs int, s *sweepStats) {
	for i := 0; time.Now().Before(deadline) || i < minJobs; i++ {
		root := c.tr.begin("interactive-job", 0)
		ok := runInteractive(c, seed, i, scale, root, s)
		c.tr.end(root)
		s.mu.Lock()
		s.ops.record(ok)
		s.mu.Unlock()
	}
}

func runInteractive(c *client, seed uint64, i int, scale float64, root int, s *sweepStats) bool {
	t0 := time.Now()
	var st serve.JobStatus
	code, d, err := c.call("POST", "/jobs", "/jobs", interactiveJob(seed, i, scale), &st, root)
	s.mu.Lock()
	s.submits = append(s.submits, ms(d))
	if code == http.StatusServiceUnavailable {
		s.sheds++
	}
	s.mu.Unlock()
	if err != nil || code != http.StatusAccepted {
		s.fail("POST /jobs: HTTP %d %v", code, err)
		if code == http.StatusServiceUnavailable {
			time.Sleep(10 * time.Millisecond) // back off before the next closed-loop job
		}
		return false
	}
	id := st.ID
	for st.State == serve.StateQueued || st.State == serve.StateRunning {
		time.Sleep(jobPollInterval)
		code, _, err = c.call("GET", "/jobs/"+id, "/jobs/{id}", nil, &st, root)
		if err != nil || code != http.StatusOK {
			s.fail("GET /jobs/%s: HTTP %d %v", id, code, err)
			return false
		}
	}
	lat := time.Since(t0)
	var res serve.JobResult
	code, _, err = c.call("GET", "/jobs/"+id+"/result", "/jobs/{id}/result", nil, &res, root)
	if err != nil || code != http.StatusOK {
		s.fail("GET /jobs/%s/result: HTTP %d %v", id, code, err)
		return false
	}
	if st.State != serve.StateSucceeded || res.Stalled || res.Metrics == nil {
		s.fail("job %s ended %s (stalled=%v) %s", id, st.State, res.Stalled, res.Error)
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latencies = append(s.latencies, ms(lat))
	s.queueWait = append(s.queueWait, ms(st.Started.Sub(st.Submitted)))
	s.service = append(s.service, ms(st.Finished.Sub(st.Started)))
	s.instrs += float64(res.Metrics.Instrs)
	s.runNanos += float64(res.Metrics.HostNanos)
	return true
}

// campaignLoop is client A: campaign after campaign until the deadline has
// passed and client B is done, each polled until it settles.
func campaignLoop(c *client, seed uint64, scale float64, deadline time.Time, bDone *atomic.Bool, s *sweepStats) {
	for round := 0; time.Now().Before(deadline) || !bDone.Load(); round++ {
		root := c.tr.begin("campaign", 0)
		runCampaign(c, seed, round, scale, root, s)
		c.tr.end(root)
	}
}

func runCampaign(c *client, seed uint64, round int, scale float64, root int, s *sweepStats) {
	req := serve.CampaignRequest{Name: "perfbench", Base: sweepBase(scale), Axes: sweepAxes(seed, round), Quota: campaignQuota}
	points := 2 * campaignSeeds
	t0 := time.Now()
	var st serve.CampaignStatus
	code, d, err := c.call("POST", "/campaigns", "/campaigns", req, &st, root)
	s.mu.Lock()
	s.campSub = append(s.campSub, ms(d))
	s.mu.Unlock()
	if err != nil || code != http.StatusAccepted {
		s.fail("POST /campaigns: HTTP %d %v", code, err)
		s.mu.Lock()
		s.ops.add(tally{points, points})
		s.mu.Unlock()
		time.Sleep(10 * time.Millisecond)
		return
	}
	id := st.ID
	for st.State == "running" {
		time.Sleep(campaignPoll)
		code, d, err = c.call("GET", "/campaigns/"+id, "/campaigns/{id}", nil, &st, root)
		if err != nil || code != http.StatusOK {
			s.fail("GET /campaigns/%s: HTTP %d %v", id, code, err)
			s.mu.Lock()
			s.ops.add(tally{points, points})
			s.mu.Unlock()
			return
		}
		s.mu.Lock()
		s.campStat = append(s.campStat, ms(d))
		s.mu.Unlock()
	}
	wall := time.Since(t0)
	succeeded := 0
	if st.Summary != nil {
		succeeded = st.Summary.Outcomes[serve.StateSucceeded]
	}
	if st.State != "done" || succeeded != points {
		s.fail("campaign %s ended %s with %d of %d points succeeded", id, st.State, succeeded, points)
	}
	var rows []serve.ResultRow
	code, _, err = c.call("GET", "/results?campaign="+id+fmt.Sprintf("&limit=%d", points), "/results", nil, &rows, root)
	if err != nil || code != http.StatusOK {
		s.fail("GET /results: HTTP %d %v", code, err)
	}
	s.mu.Lock()
	s.ops.add(tally{points, points - succeeded})
	s.points += points
	s.campWall += wall
	for _, row := range rows {
		if row.Outcome == serve.StateSucceeded && row.SimMIPS > 0 {
			s.instrs += float64(row.Instructions)
			s.runNanos += float64(row.Instructions) / row.SimMIPS * 1e3
		}
	}
	check := !s.sampled && len(st.Children) == points
	s.sampled = s.sampled || check
	s.mu.Unlock()
	if check {
		// One sampled point (the last: 64 cores) must be bit-identical to the
		// same point run in process through the facade.
		if err := checkSampledPoint(c, req, st.Children[points-1], points-1, root); err != nil {
			s.fail("sampled point: %v", err)
			s.mu.Lock()
			s.ops.failed++
			s.mu.Unlock()
		}
	}
}

// checkSampledPoint compares one campaign child's result with an in-process
// facade run of the same expanded point.
func checkSampledPoint(c *client, req serve.CampaignRequest, child string, index int, parent int) error {
	var res serve.JobResult
	code, _, err := c.call("GET", "/jobs/"+child+"/result", "/jobs/{id}/result", nil, &res, parent)
	if err != nil || code != http.StatusOK || res.Metrics == nil {
		return fmt.Errorf("GET /jobs/%s/result: HTTP %d %v", child, code, err)
	}
	pts, err := campaign.Expand(zsim.TiledConfig(req.Base.Tiles, req.Base.CoreModel), req.Axes, 0)
	if err != nil {
		return err
	}
	p := pts[index]
	sim, err := zsim.New(p.Config)
	if err != nil {
		return err
	}
	for _, w := range req.Base.Workloads {
		params, _ := zsim.LookupWorkload(w.Name)
		params.BlocksPerThread = w.Blocks
		sim.AddWorkload(w.Name, params, w.Threads)
	}
	sim.SetHostThreads(req.Base.HostThreads)
	sim.SetSeed(p.Seed)
	local, err := sim.Run()
	if err != nil {
		return err
	}
	g, l := *res.Metrics, *local.Metrics
	g.HostNanos, l.HostNanos, g.SimMIPS, l.SimMIPS = 0, 0, 0, 0
	g.Workload, l.Workload = "", ""
	if g != l || res.Intervals != local.Intervals || res.WeaveEvents != local.WeaveEvents {
		return fmt.Errorf("point %d differs from the in-process run:\n  daemon  %+v\n  process %+v", index, g, l)
	}
	return nil
}

// sweepWindow runs both clients against d for the given seconds.
func sweepWindow(d *daemon, cfg runConfig, seconds float64, tr *tracer) *sweepStats {
	s := &sweepStats{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	a, b := newClient(d.url, tr), newClient(d.url, tr)
	defer a.hc.CloseIdleConnections()
	defer b.hc.CloseIdleConnections()
	var bDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		campaignLoop(a, cfg.seed, cfg.scale, deadline, &bDone, s)
	}()
	go func() {
		defer wg.Done()
		defer bDone.Store(true)
		interactiveLoop(b, cfg.seed, cfg.scale, deadline, cfg.minJobs, s)
	}()
	wg.Wait()
	return s
}

// benchSweep runs zsimd-sweep: server set-up (several times; the last one
// serves), then the two clients for the configured seconds. A traced run
// splits the window: the first half untraced, the second traced.
func benchSweep(cfg runConfig) *result {
	r := newResult()
	var setups []float64
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		dd, err := startDaemon()
		if err != nil {
			r.fail("start zsimd: %v", err)
			r.finish(tally{1, 1}, nil)
			return r
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	defer d.stop()

	if !cfg.traced {
		s := sweepWindow(d, cfg, cfg.seconds, nil)
		sweepProblems(r, s)
		r.set(endToEnd, "sim_mips", ratio(s.instrs*1e3, s.runNanos))
		r.set(endToEnd, "setup_s", median(setups))
		r.set(endToEnd, "peak_rss_mb", peakRSSMiB())
		r.set(endToEnd, "points_per_s", ratio(float64(s.points), s.campWall.Seconds()))
		r.set(endToEnd, "job_p50_ms", percentile(s.latencies, 50))
		r.set(endToEnd, "job_p95_ms", percentile(s.latencies, 95))
		if len(s.latencies) < cfg.minJobs {
			r.fail("only %d of %d interactive jobs succeeded", len(s.latencies), cfg.minJobs)
		}
		r.note("%d interactive jobs, %d campaign points in %.2f s of campaign time",
			len(s.latencies), s.points, s.campWall.Seconds())
		r.finish(s.ops, endToEnd)
		return r
	}

	untraced := sweepWindow(d, cfg, cfg.seconds/2, nil)
	s := sweepWindow(d, cfg, cfg.seconds/2, cfg.tr)
	sweepProblems(r, untraced)
	sweepProblems(r, s)
	s.ops.add(untraced.ops)
	pu := ratio(float64(untraced.points), untraced.campWall.Seconds())
	pt := ratio(float64(s.points), s.campWall.Seconds())
	r.note("points_per_s untraced %.2f, traced %.2f", pu, pt)
	r.set(perLayer, "bench.trace_overhead", 1-ratio(pt, pu))
	serveMetrics(r, d, s, cfg.tr)
	if err := reuseDriver(r, cfg); err != nil {
		r.fail("reuse driver: %v", err)
	}
	jobLayers(r, cfg, jobLayerSeconds, &s.ops)
	r.finish(s.ops, perLayer)
	return r
}

// A simulation workload's traced run measures the serve layers in a short
// window of the zsimd-sweep clients (at least 20 interactive jobs; about 200
// fit in 2 s on a 2-vCPU host), and zsimd-sweep's traced run measures the
// simulation layers on its campaign job for about 2 s.
const (
	serveLayerSeconds = 2
	serveLayerJobs    = 20
	jobLayerSeconds   = 2
)

// serveLayers measures the serve, campaign and warm-reuse layers in a
// simulation workload's traced run: a fresh in-process daemon, a short traced
// window of the zsimd-sweep clients, and the Reset-versus-New driver. Every
// traced run thus reports every per-layer metric from a measurement.
func serveLayers(r *result, cfg runConfig, ops *tally) {
	d, err := startDaemon()
	if err != nil {
		r.fail("start zsimd: %v", err)
		ops.add(tally{1, 1})
		return
	}
	defer d.stop()
	c := cfg
	c.minJobs = serveLayerJobs
	s := sweepWindow(d, c, serveLayerSeconds, cfg.tr)
	sweepProblems(r, s)
	ops.add(s.ops)
	serveMetrics(r, d, s, cfg.tr)
	if err := reuseDriver(r, cfg); err != nil {
		r.fail("reuse driver: %v", err)
	}
}

// serveMetrics sets the serve and campaign metrics from one client window
// and the daemon's /healthz.
func serveMetrics(r *result, d *daemon, s *sweepStats, tr *tracer) {
	var health struct {
		Pool struct {
			HitRate float64 `json:"hitRate"`
		} `json:"pool"`
	}
	hc := newClient(d.url, tr)
	if code, _, err := hc.call("GET", "/healthz", "/healthz", nil, &health, 0); err != nil || code != http.StatusOK {
		r.fail("GET /healthz: HTTP %d %v", code, err)
	}
	hc.hc.CloseIdleConnections()
	r.set(perLayer, "serve.submit_ms_p50", median(s.submits))
	r.set(perLayer, "serve.queue_wait_ms_p50", percentile(s.queueWait, 50))
	r.set(perLayer, "serve.queue_wait_ms_p95", percentile(s.queueWait, 95))
	r.set(perLayer, "serve.service_ms_p50", percentile(s.service, 50))
	r.set(perLayer, "serve.pool_hit_rate", health.Pool.HitRate)
	r.set(perLayer, "serve.shed_frac", ratio(float64(s.sheds), float64(len(s.submits))))
	r.set(perLayer, "campaign.submit_ms", median(s.campSub))
	r.set(perLayer, "campaign.status_ms_p50", median(s.campStat))
}

func sweepProblems(r *result, s *sweepStats) {
	for _, p := range s.problems {
		r.fail("%s", p)
	}
	switch {
	case !s.sampled:
		r.fail("no campaign point was checked against the facade")
	case len(s.problems) == 0:
		r.note("sampled campaign point: bit-identical to the in-process facade run")
	}
}

// reuseDriver times zsim.Simulator.Reset against zsim.New on each of the
// sweep's shapes, per call (self time of the "drv/zsim.Reset" and
// "drv/zsim.New" spans over the call count).
func reuseDriver(r *result, cfg runConfig) error {
	const reps = 8
	root := cfg.tr.begin("reuse-driver", 0)
	calls := 0
	for _, shape := range sweepShapes() {
		params, _ := zsim.LookupWorkload("blackscholes")
		params.BlocksPerThread = max(int(10*cfg.scale), 1)
		var sim *zsim.Simulator
		for i := 0; i < reps; i++ {
			c := *shape
			sp := cfg.tr.begin("drv/zsim.New", root)
			fresh, err := zsim.New(&c)
			cfg.tr.end(sp)
			if err != nil {
				return err
			}
			if sim == nil {
				sim = fresh
				sim.SetReusable(true)
			}
		}
		for i := 0; i < reps; i++ {
			sim.SetHostThreads(1)
			sim.AddWorkload("blackscholes", params, 2)
			if _, err := sim.Run(); err != nil {
				sim.Close()
				return err
			}
			c := *shape
			sp := cfg.tr.begin("drv/zsim.Reset", root)
			err := sim.Reset(&c)
			cfg.tr.end(sp)
			if err != nil {
				sim.Close()
				return err
			}
		}
		sim.Close()
		calls += reps
	}
	cfg.tr.end(root)
	self := cfg.tr.selfTimes()
	r.set(perLayer, "pool.fresh_build_ms", float64(self["drv/zsim.New"])/1e6/float64(calls))
	r.set(perLayer, "pool.reset_ms", float64(self["drv/zsim.Reset"])/1e6/float64(calls))
	return nil
}
