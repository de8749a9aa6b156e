package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"tiscc/internal/decoder"
	"tiscc/internal/frame"
	"tiscc/internal/noise"
	"tiscc/internal/pauli"
	"tiscc/internal/serve"
	"tiscc/internal/verify"
)

// hotKey is one compiled point of the hot set, with the shots each request
// for it asks for. Shots are sized so every hot request costs about the
// same, which keeps the hit-latency distribution single-peaked.
type hotKey struct {
	workload string
	d        int
	model    string
	p        float64
	shots    int
}

// serveSpec is a closed loop of POST /v1/estimate against an in-process
// server: each of nproc clients keeps one request in flight. Within every
// block of missEvery requests of a client exactly one asks for a fresh
// (never-seen) key, so the generator, not the scheduler, fixes the hit
// share. The share (one miss per hit) and the per-key shot counts are
// design choices, not measured traffic; README.md gives the reasons. The
// cache budget keeps every hot key resident while old fresh keys are
// evicted, so memory does not grow with throughput.
type serveSpec struct {
	name string
	hot  []hotKey
	// Misses: memory experiments of distance missD under depolarizing
	// noise at a fresh p in [missP, 1.25·missP).
	missD, missShots int
	missP            float64
	missEvery        int

	setupReps, traceReps int // server start + warm-up repetitions
	checkMisses          int // fresh keys the gate sends twice (miss, then hit)
	replays              int // traced run: solo hit requests replayed in process
	// replayCompiles is how many fresh memory keys and fresh surgery
	// (distance surgeryD) keys the traced run compiles in process.
	replayCompiles, surgeryD int
	cacheBytesPerClient      int
	hitTail, missTail        float64
}

func defaultServeSpec() serveSpec {
	return serveSpec{
		name: "serve-mixed",
		hot: []hotKey{
			{serve.WorkloadMemory, 3, serve.ModelDepolarizing, 1e-3, 1024},
			{serve.WorkloadMemory, 3, serve.ModelTable5, 0, 1024},
			{serve.WorkloadMemory, 5, serve.ModelDepolarizing, 1e-3, 128},
			{serve.WorkloadMemory, 5, serve.ModelTable5, 0, 128},
			{serve.WorkloadSurgery, 3, serve.ModelDepolarizing, 1e-3, 256},
			{serve.WorkloadSurgery, 3, serve.ModelTable5, 0, 256},
		},
		missD: 5, missShots: 128, missP: 1e-3, missEvery: 2,
		setupReps: 20, traceReps: 3, checkMisses: 2, replays: 30, replayCompiles: 3, surgeryD: 3,
		// The hot set's bundles take 0.72 MB and a fresh d=5 bundle 0.18 MB.
		// Between two uses of a hot key each client sends at most 12 fresh
		// keys (two cycles of the hot set at one miss per hit); 5 MiB per
		// client leaves room for about twice that.
		cacheBytesPerClient: 5 << 20,
		hitTail:             95, missTail: 75,
	}
}

// genReq is one generated request.
type genReq struct {
	req serve.EstimateRequest
	hot bool // expects a cache hit
}

func (g genReq) body() []byte {
	b, err := json.Marshal(g.req)
	if err != nil {
		panic(err) // a plain struct of numbers and strings always marshals
	}
	return b
}

func (sp serveSpec) hotReq(k hotKey, seed int64) genReq {
	return genReq{hot: true, req: serve.EstimateRequest{Workload: k.workload, Distance: k.d,
		Model: k.model, P: k.p, Shots: k.shots, Seed: seed, Workers: 1}}
}

// freshReq is a request for a key no other request names: p is drawn from
// a stream of 53-bit fractions.
func (sp serveSpec) freshReq(seed int64, stream uint64, i int) genReq {
	u := float64(uint64(subSeed(seed, stream, i))>>10) / (1 << 53)
	return genReq{req: serve.EstimateRequest{Workload: serve.WorkloadMemory, Distance: sp.missD,
		Model: serve.ModelDepolarizing, P: sp.missP * (1 + u/4), Shots: sp.missShots,
		Seed: subSeed(seed, stream, i+1<<40), Workers: 1}}
}

// canonical is the warm-up request of hot key k; the gate resends it.
func (sp serveSpec) canonical(seed int64, k int) genReq {
	return sp.hotReq(sp.hot[k], subSeed(seed, streamCold, k))
}

// request is client c's i-th request of the closed loop: a pure function
// of (seed, c, i). Hot requests walk the hot set in a fresh seeded order
// per cycle, so every hot key is requested at least once every two cycles
// of each client: that bounds how many fresh keys can be inserted between
// two uses of a hot key, and a cache budget above that keeps the hot set
// resident.
func (sp serveSpec) request(seed int64, c, i int) genReq {
	block, slot := i/sp.missEvery, i%sp.missEvery
	miss := int(uint64(subSeed(seed, streamClient, c<<32|block)) % uint64(sp.missEvery))
	if slot == miss {
		return sp.freshReq(seed, streamFresh, c<<32|block)
	}
	j := block*(sp.missEvery-1) + slot // index among the client's hot requests
	if slot > miss {
		j--
	}
	n := len(sp.hot)
	perm := rand.New(rand.NewPCG(uint64(subSeed(seed, streamHot, c<<32|j/n)), 0)).Perm(n)
	return sp.hotReq(sp.hot[perm[j%n]], subSeed(seed, streamReq, c<<32|i))
}

// server is an in-process estimator service on a loopback listener.
type server struct {
	hs     *http.Server
	url    string
	done   chan error
	client *http.Client
}

func startServer(cacheBytes, clients int) (*server, error) {
	srv := serve.NewServer(serve.Config{CacheBytes: cacheBytes})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String() + "/v1/estimate", done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients + 1}}}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	s.client.CloseIdleConnections()
	return err
}

// reply is one response as the client saw it.
type reply struct {
	status int
	cache  string // X-Tiscc-Cache
	body   []byte
	lat    time.Duration
}

func (s *server) post(body []byte) (reply, error) {
	t0 := time.Now()
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Tiscc-Cache"), body: b, lat: time.Since(t0)}, err
}

// sent is one request of the closed loop with its reply.
type sent struct {
	client int
	g      genReq
	reply  reply
	err    error
}

func (x sent) ok() bool { return x.err == nil && x.reply.status == http.StatusOK }

// loopRun is a closed loop run in slices, its requests in order.
type loopRun struct {
	name    string
	clients int
	traced  bool // every request gets a span
	recs    []sent
	wall    time.Duration
}

// shotsPerS is the shots answered per second of the loop.
func (l *loopRun) shotsPerS() float64 {
	shots := 0
	for _, x := range l.recs {
		if x.ok() {
			shots += x.g.req.Shots
		}
	}
	return float64(shots) / l.wall.Seconds()
}

// latencies splits the answered requests' latencies (ms) into hits and
// misses.
func (l *loopRun) latencies() (hit, miss []float64) {
	for _, x := range l.recs {
		if !x.ok() {
			continue
		}
		if x.g.hot {
			hit = append(hit, ms(x.reply.lat))
		} else {
			miss = append(miss, ms(x.reply.lat))
		}
	}
	return hit, miss
}

// slice runs the loop's clients for d, each keeping one request in flight
// and continuing its request sequence at next[c]; it ends when the last
// request in flight returns.
func (sp serveSpec) slice(l *loopRun, s *server, e *env, next []int, d time.Duration) bool {
	root := e.tr.open(l.name, 0)
	defer e.tr.close(root)
	per := make([][]sent, l.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range l.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				g := sp.request(e.seed, c, next[c])
				next[c]++
				var id int
				if l.traced {
					id = e.tr.open("serve.request", root)
				}
				rp, err := s.post(g.body())
				e.tr.close(id)
				per[c] = append(per[c], sent{client: c, g: g, reply: rp, err: err})
			}
		}()
	}
	wg.Wait()
	l.wall += time.Since(start)
	for _, p := range per {
		l.recs = append(l.recs, p...)
	}
	return true
}

// inproc replays requests in process through the same calls the handler
// makes, accumulating the decoder and sampler work counts.
type inproc struct {
	arts         map[serve.Key]*serve.Artifact
	dec          map[string]float64 // summed counter diffs
	faults, smps float64
}

func newInproc() *inproc {
	return &inproc{arts: map[serve.Key]*serve.Artifact{}, dec: map[string]float64{}}
}

func keyOf(q serve.EstimateRequest) serve.Key {
	return serve.Key{Workload: q.Workload, Distance: q.Distance, Rounds: q.Rounds, Model: q.Model, P: q.P}.Normalize()
}

func (ip *inproc) artifact(q serve.EstimateRequest) (*serve.Artifact, error) {
	k := keyOf(q)
	if a, ok := ip.arts[k]; ok {
		return a, nil
	}
	a, err := serve.CompileArtifact(k)
	if err != nil {
		return nil, err
	}
	ip.arts[k] = a
	return a, nil
}

// estimate runs the handler's work for q: a fresh frame sampler and the
// decoded estimate. With a tracer it is the traced one-worker estimate.
func (ip *inproc) estimate(q serve.EstimateRequest, tr *tracer, parent int) (serve.EstimateResult, error) {
	art, err := ip.artifact(q)
	if err != nil {
		return serve.EstimateResult{}, err
	}
	var sim *frame.Sim
	tr.timed("frame.reference.request", parent, func() { sim, err = frame.New(art.Prog, art.Sched) })
	if err != nil {
		return serve.EstimateResult{}, err
	}
	pt := &point{prog: art.Prog, outcome: art.Outcome, ref: art.Reference, sched: art.Sched, graph: art.Graph, sim: sim}
	a := pt.snapshot()
	var res noise.Result
	if tr != nil {
		res, err = pt.estimateTraced(tr, parent, q.Shots, q.Seed)
	} else {
		res, err = pt.estimate(pt.options(q.Shots, q.Seed, q.Workers))
	}
	if err != nil {
		return serve.EstimateResult{}, err
	}
	b := pt.snapshot()
	for _, n := range []string{"shots", "defects", "growth_rounds", "empty_syndromes"} {
		ip.dec[n] += float64(b.dec.Counter(n) - a.dec.Counter(n))
	}
	ip.smps += float64(b.smp.Counter("shots") - a.smp.Counter("shots"))
	ip.faults += float64(b.smp.Counter("faults_fired") - a.smp.Counter("faults_fired"))
	return serve.EstimateResult{
		Shots: res.Shots, Requested: res.Requested, Errors: res.Errors,
		PL: res.Rate, StdErr: res.StdErr,
		WilsonLow: res.WilsonLow, WilsonHigh: res.WilsonHigh,
		HalfWidth: res.HalfWidth, EarlyStopBatch: res.EarlyStopBatch,
		Reference: res.Reference,
	}, nil
}

// coldServe is one set-up: server start plus hot-set warm-up, then one
// fresh-key request (the time to a CI on a new point).
type coldServe struct {
	s           *server
	setup, ttci time.Duration
	warm        []reply
}

func (sp serveSpec) cold(rep int, r *report, e *env) (coldServe, bool) {
	var c coldServe
	runtime.GC()
	root := e.tr.open("bench.setup", 0)
	t0 := time.Now()
	s, err := startServer(sp.cacheBytesPerClient*e.workers, e.workers)
	if err != nil {
		e.tr.close(root)
		r.fault("start server: %v", err)
		return c, false
	}
	c.s = s
	for k := range sp.hot {
		id := e.tr.open("serve.warm", root)
		rp, err := s.post(sp.canonical(e.seed, k).body())
		e.tr.close(id)
		r.attempted++
		if err != nil || rp.status != http.StatusOK || rp.cache != "miss" {
			r.failed++
			r.fault("warm-up %d: status %d, cache %q, %v: %s", k, rp.status, rp.cache, err, rp.body)
			return c, false
		}
		c.warm = append(c.warm, rp)
	}
	c.setup = time.Since(t0)
	e.tr.close(root)

	id := e.tr.open("bench.ci", 0)
	rp, err := s.post(sp.freshReq(e.seed, streamCI, rep).body())
	c.ttci = c.setup + rp.lat
	e.tr.close(id)
	r.attempted++
	if err != nil || rp.status != http.StatusOK || rp.cache != "miss" {
		r.failed++
		r.fault("fresh request %d: status %d, cache %q, %v: %s", rep, rp.status, rp.cache, err, rp.body)
		return c, false
	}
	return c, true
}

func (sp serveSpec) run(e *env) *report {
	r := newReport()
	reps := sp.setupReps
	if e.tr != nil {
		reps = sp.traceReps
	}
	// The first set-up's server serves the loops for the whole run; later
	// set-ups start, warm and stop servers of their own.
	var setups, ttcis []float64
	var s *server
	var warm []reply
	defer func() {
		if s != nil {
			if err := s.stop(); err != nil {
				r.fault("stop server: %v", err)
			}
		}
	}()
	cold := func(rep int) bool {
		c, ok := sp.cold(rep, r, e)
		if rep == 0 {
			s, warm = c.s, c.warm
		} else if c.s != nil {
			if err := c.s.stop(); err != nil {
				r.fault("stop server: %v", err)
				ok = false
			}
		}
		setups = append(setups, c.setup.Seconds())
		ttcis = append(ttcis, c.ttci.Seconds())
		return ok
	}

	// Two loops: all clients and one (untraced), or one client untraced
	// and traced. Request indices continue across slices, so every fresh
	// key stays fresh.
	next := make([]int, e.workers)
	a := &loopRun{name: "bench.loop", clients: e.workers}
	b := &loopRun{name: "bench.loop.1w", clients: 1}
	if e.tr != nil {
		a = &loopRun{name: "bench.loop.1w", clients: 1}
		b = &loopRun{name: "bench.loop.traced", clients: 1, traced: true}
	}
	ok := runRounds(e.window, reps, cold,
		func(d time.Duration) bool { return sp.slice(a, s, e, next, d) },
		func(d time.Duration) bool { return sp.slice(b, s, e, next, d) })
	peak := maxRSSMB()
	if !ok {
		return r
	}
	all := append(append([]sent(nil), a.recs...), b.recs...)
	var hits, misses int
	for _, x := range all {
		r.attempted++
		if !x.ok() {
			r.failed++
			r.fault("request %s: status %d, %v: %s", x.g.body(), x.reply.status, x.err, x.reply.body)
			continue
		}
		want := "miss"
		if x.g.hot {
			want = "hit"
			hits++
		} else {
			misses++
		}
		if x.reply.cache != want {
			r.fault("request %s: cache %s, the generator designed a %s", x.g.body(), x.reply.cache, want)
		}
	}
	gate := e.tr.open("bench.gates", 0)
	ip := newInproc()
	sp.gates(s, warm, ip, r, e)
	e.tr.close(gate)
	r.note("%s: %d hot keys, one miss per %d requests per client; %d requests (%d hits, %d misses)",
		sp.name, len(sp.hot), sp.missEvery, len(all), hits, misses)

	if e.tr == nil {
		r.metrics["setup_s"] = median(setups)
		r.metrics["time_to_ci_s"] = median(ttcis)
		r.metrics["shots_per_s"] = a.shotsPerS()
		r.metrics["shots_per_s_1w"] = b.shotsPerS()
		r.metrics["peak_rss_mb"] = peak
		r.metrics["req_per_s"] = float64(len(a.recs)) / a.wall.Seconds()
		hitMS, missMS := a.latencies()
		var note string
		r.metrics["hit_p50_ms"], r.metrics["hit_tail_ms"], note = latencySummary(fmt.Sprintf("hit (%d clients)", e.workers), hitMS, sp.hitTail)
		r.note("%s", note)
		r.metrics["miss_p50_ms"], r.metrics["miss_tail_ms"], note = latencySummary(fmt.Sprintf("miss (%d clients)", e.workers), missMS, sp.missTail)
		r.note("%s", note)
		r.note("set-up n=%d, time-to-CI n=%d", len(setups), len(ttcis))
		return r
	}

	r.metrics["serve.hit_ratio"] = float64(hits) / float64(hits+misses)
	q := sp.canonical(e.seed, 0).req
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := ip.estimate(q, nil, 0); err != nil {
		r.fault("in-process estimate: %v", err)
	}
	runtime.ReadMemStats(&m1)
	r.metrics["noise.estimate_allocs_per_shot"] = float64(m1.Mallocs-m0.Mallocs) / float64(q.Shots)
	r.metrics["trace.overhead_ratio"] = b.shotsPerS() / a.shotsPerS()
	sp.replay(s, ip, r, e)
	return r
}

// gates checks the service's answers: identical bodies give byte-identical
// responses whether they hit or miss, and every checked response equals
// the in-process estimate of the same request.
func (sp serveSpec) gates(s *server, warm []reply, ip *inproc, r *report, e *env) {
	type check struct {
		g    genReq
		resp []byte
	}
	var checks []check
	for k := range sp.hot {
		checks = append(checks, check{sp.canonical(e.seed, k), warm[k].body})
	}
	// Fresh keys of the gate's own, sent once to miss; old loop misses may
	// already be evicted.
	for i := 0; i < sp.checkMisses; i++ {
		g := sp.freshReq(e.seed, streamCheck, i)
		rp, err := s.post(g.body())
		r.attempted++
		if err != nil || rp.status != http.StatusOK || rp.cache != "miss" {
			r.failed++
			r.fault("fresh request %s: status %d, cache %q, %v", g.body(), rp.status, rp.cache, err)
			continue
		}
		checks = append(checks, check{g, rp.body})
	}
	digest := sha256.New()
	for _, ch := range checks {
		rp, err := s.post(ch.g.body())
		r.attempted++
		if err != nil || rp.status != http.StatusOK {
			r.failed++
			r.fault("resend of %s: status %d, %v", ch.g.body(), rp.status, err)
			continue
		}
		if rp.cache != "hit" {
			r.fault("resend of %s: cache %s, want hit", ch.g.body(), rp.cache)
		}
		if !bytes.Equal(rp.body, ch.resp) {
			r.fault("resend of %s: response bytes differ between miss and hit:\n%s\n%s", ch.g.body(), ch.resp, rp.body)
		}
		digest.Write(rp.body)
		var resp serve.EstimateResponse
		if err := json.Unmarshal(rp.body, &resp); err != nil {
			r.fault("response of %s: %v", ch.g.body(), err)
			continue
		}
		want, err := ip.estimate(ch.g.req, nil, 0)
		if err != nil {
			r.fault("in-process estimate of %s: %v", ch.g.body(), err)
			continue
		}
		if resp.Result != want {
			r.fault("response of %s: %+v, in-process estimate %+v", ch.g.body(), resp.Result, want)
		}
	}
	r.results["digest"] = hex.EncodeToString(digest.Sum(nil))

	// Structural sizes of the hot set and per-shot work of the checked
	// estimates.
	c := map[string]float64{}
	for k := range sp.hot {
		art, err := ip.artifact(sp.canonical(e.seed, k).req)
		if err != nil {
			r.fault("%v", err)
			return
		}
		sim, err := frame.New(art.Prog, art.Sched)
		if err != nil {
			r.fault("%v", err)
			return
		}
		c["orqcs.instrs"] += float64(art.Prog.NumInstrs())
		c["noise.fault_sites"] += float64(art.Sched.NumFaultSites())
		c["decoder.detectors"] += float64(art.Graph.Detectors().NumDetectors())
		c["decoder.edges"] += float64(len(art.Graph.Edges()))
		c["frame.events"] += float64(sim.NumEvents())
		if k == 0 {
			pt := &point{prog: art.Prog, model: art.Sched.Model(), sim: sim}
			if err := oracle(pt, sp.canonical(e.seed, 0).req.Seed); err != nil {
				r.fault("%v", err)
			}
		}
	}
	if n := ip.dec["shots"]; n > 0 {
		c["decoder.defects_per_shot"] = ip.dec["defects"] / n
		c["decoder.grow_rounds_per_shot"] = ip.dec["growth_rounds"] / n
		c["decoder.empty_syndrome_ratio"] = ip.dec["empty_syndromes"] / n
	}
	if ip.smps > 0 {
		c["frame.faults_fired_per_shot"] = ip.faults / ip.smps
	}
	r.setCounts(c)
	if len(checks) > len(sp.hot) {
		if art, err := ip.artifact(checks[len(sp.hot)].g.req); err == nil {
			r.metrics["wire.bundle_bytes"] = float64(art.BundleBytes)
			r.results["wire.bundle_bytes"] = strconv.Itoa(art.BundleBytes)
		}
	}
}

// buildSurgery compiles a surgery point at distance d under depolarizing
// noise p stage by stage, through the calls serve.CompileArtifact makes,
// with a span around each.
func buildSurgery(tr *tracer, parent, d int, p float64) error {
	var s *verify.Surgery
	var err error
	tr.timed("verify.surgery_experiment", parent, func() { s, err = verify.SurgeryExperiment(d, 1, d, 1, pauli.Z) })
	if err != nil {
		return err
	}
	var dets *decoder.Detectors
	tr.timed("decoder.extract_surgery", parent, func() { dets, err = decoder.ExtractSurgery(s) })
	if err != nil {
		return err
	}
	var sched *noise.Schedule
	tr.timed("noise.compile.surgery", parent, func() { sched = noise.Compile(noise.Depolarizing(p), s.Prog) })
	tr.timed("decoder.graph_compile.surgery", parent, func() { _, err = decoder.CompileGraph(dets, sched) })
	return err
}

// replay is the traced run's per-layer pass: fresh memory and surgery keys
// compiled in process stage by stage, the memory ones also through
// serve.CompileArtifact, and hot requests sent alone and then estimated in
// process, whose difference is the service's overhead on a hit.
func (sp serveSpec) replay(s *server, ip *inproc, r *report, e *env) {
	root := e.tr.open("bench.replay", 0)
	defer e.tr.close(root)
	var allocs, overhead []float64
	for i := 0; i < sp.replayCompiles; i++ {
		g := sp.freshReq(e.seed, streamReplay, i)
		id := e.tr.open("bench.compile", root)
		bs := batchSpec{d: sp.missD, rounds: sp.missD, p: g.req.P, decode: true}
		_, alloc, err := bs.build(e.tr, id)
		if err != nil {
			e.tr.close(id)
			r.fault("replay build: %v", err)
			return
		}
		allocs = append(allocs, alloc)
		var art *serve.Artifact
		e.tr.timed("serve.compile_artifact", id, func() { art, err = serve.CompileArtifact(keyOf(g.req)) })
		if err == nil {
			e.tr.timed("wire.roundtrip", id, func() { _, err = serve.DecodeBundle(serve.EncodeBundle(art)) })
		}
		if err == nil {
			err = buildSurgery(e.tr, id, sp.surgeryD, g.req.P)
		}
		e.tr.close(id)
		if err != nil {
			r.fault("replay compile: %v", err)
			return
		}
	}
	shots := 0
	for i := 0; i < sp.replays; i++ {
		k := int(uint64(subSeed(e.seed, streamReplay, 1<<40|i)) % uint64(len(sp.hot)))
		g := sp.hotReq(sp.hot[k], subSeed(e.seed, streamReplay, 2<<40|i))
		id := e.tr.open("serve.hit.solo", root)
		rp, err := s.post(g.body())
		e.tr.close(id)
		r.attempted++
		if err != nil || rp.status != http.StatusOK || rp.cache != "hit" {
			r.failed++
			r.fault("replay %d: status %d, cache %q, %v", i, rp.status, rp.cache, err)
			return
		}
		t0 := time.Now()
		want, err := ip.estimate(g.req, nil, 0)
		inproc := time.Since(t0)
		if err != nil {
			r.fault("replay %d in process: %v", i, err)
			return
		}
		id = e.tr.open("bench.request", root)
		_, err = ip.estimate(g.req, e.tr, id)
		e.tr.close(id)
		if err != nil {
			r.fault("replay %d traced: %v", i, err)
			return
		}
		var resp serve.EstimateResponse
		if err := json.Unmarshal(rp.body, &resp); err != nil || resp.Result != want {
			r.fault("replay %d: response %+v, in-process %+v (%v)", i, resp.Result, want, err)
		}
		overhead = append(overhead, ms(rp.lat-inproc))
		shots += want.Shots
	}
	st := e.tr.analyze()
	medS := func(name string) float64 { return median(durSeconds(st.durs[name])) }
	r.metrics["verify.experiment_s"] = medS("verify.experiment")
	r.metrics["noise.compile_s"] = medS("noise.compile")
	r.metrics["decoder.extract_s"] = medS("decoder.extract")
	r.metrics["verify.surgery_experiment_s"] = medS("verify.surgery_experiment")
	r.metrics["decoder.extract_surgery_s"] = medS("decoder.extract_surgery")
	r.metrics["decoder.graph_compile_s"] = medS("decoder.graph_compile")
	r.metrics["decoder.graph_compile_alloc_mb"] = median(allocs)
	// The per-request frame.New of the replayed hits, which is what a hit
	// pays; the fresh builds' frame.New is not reported here.
	r.metrics["frame.reference_ms"] = medS("frame.reference.request") * 1e3
	r.metrics["serve.compile_artifact_s"] = medS("serve.compile_artifact")
	r.metrics["wire.roundtrip_ms"] = medS("wire.roundtrip") * 1e3
	r.metrics["serve.hit_overhead_ms"] = median(overhead)
	r.setShotLayers(st, shots)
	r.note("replayed %d fresh memory d=%d and surgery d=%d compiles and %d solo hits",
		sp.replayCompiles, sp.missD, sp.surgeryD, sp.replays)
}
