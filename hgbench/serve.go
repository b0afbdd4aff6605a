package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// jobsPerSecond sizes serve-mixed: -seconds 10 submits 1000 jobs. A
// p95 needs 200; the rest average out the cost differences between the
// progen kernels a seed draws for fuzz and repair jobs.
const jobsPerSecond = 100

// serveInput is one serve-mixed submission, ready to POST.
type serveInput struct {
	Kind    string
	Key     string
	Body    []byte
	Planted []string // check jobs: the error classes progen planted
}

// jobBody is the POST /v1/jobs request.
type jobBody struct {
	Kind    string         `json:"kind"`
	Source  string         `json:"source"`
	Kernel  string         `json:"kernel"`
	Host    string         `json:"host,omitempty"`
	Targets []string       `json:"targets,omitempty"`
	Budget  map[string]int `json:"budget,omitempty"`
}

// setupServe builds the seeded job list and starts hgserve to readiness
// and stops it again, so setup_s includes the daemon's start-up.
func setupServe(cfg config) (any, []time.Duration, error) {
	return repeatSetup(setupReps, func() ([]serveInput, error) { return buildJobs(cfg) })
}

func buildJobs(cfg config) ([]serveInput, error) {
	var in []serveInput
	for _, j := range jobList(cfg.Seed, jobsPerSecond*cfg.Seconds, targetNames()) {
		b := jobBody{Kind: j.Kind, Targets: j.Targets}
		var planted []string
		switch j.Kind {
		case kindTranspile:
			s := mustSubject(j.Subject)
			b.Source, b.Kernel, b.Host = s.Source, s.Kernel, s.HostMain
			b.Budget = map[string]int{"fuzz_execs": transpileJobExecs}
		default:
			prog, err := genKernel(j.ProgenSeed)
			if err != nil {
				return nil, err
			}
			b.Source, b.Kernel = prog.Source, prog.Kernel
			for _, v := range prog.Planted {
				planted = append(planted, v.Class.String())
			}
			if j.Kind == kindFuzz {
				b.Budget = map[string]int{"fuzz_execs": fuzzJobExecs}
			}
		}
		body, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		in = append(in, serveInput{Kind: j.Kind, Key: j.key(), Body: body, Planted: planted})
	}
	d, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := d.stop(); err != nil {
		return nil, err
	}
	return in, nil
}

// daemon is a running hgserve child.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	state   string
	drained chan struct{} // closed once the child's stdout reaches EOF
}

// startServer starts hgserve on a free localhost port with a fresh
// state directory (so every job transition is journaled and fsynced),
// the default in-memory cache and one pool worker per CPU, and waits
// until it answers /readyz.
func startServer(cfg config) (*daemon, error) {
	state, err := os.MkdirTemp(cfg.Out, "serve-state-")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.Hgserve, "-addr", "127.0.0.1:0", "-state-dir", state,
		"-pool", strconv.Itoa(runtime.NumCPU()))
	logf, err := os.OpenFile(filepath.Join(cfg.Out, "hgserve.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(state)
		return nil, fmt.Errorf("start hgserve: %w", err)
	}
	d := &daemon{cmd: cmd, state: state, drained: make(chan struct{})}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	go func() {
		// Keep the pipe drained until the child exits; Wait must not
		// run before this returns.
		defer close(d.drained)
		io.Copy(io.Discard, br)
	}()
	const prefix = "hgserve: listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		d.kill()
		return nil, fmt.Errorf("hgserve did not report its address (read %q: %v)", line, err)
	}
	d.base = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("hgserve not ready after 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, waits for it to exit and
// returns its resource usage.
func (d *daemon) stop() (usage, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return usage{}, err
	}
	select {
	case <-d.drained:
	case <-time.After(60 * time.Second):
		d.kill()
		return usage{}, fmt.Errorf("hgserve did not drain within 60s")
	}
	defer os.RemoveAll(d.state)
	if err := d.cmd.Wait(); err != nil {
		return usage{}, fmt.Errorf("hgserve exit: %w", err)
	}
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}, fmt.Errorf("no rusage for hgserve")
	}
	return fromRusage(ru), nil
}

// kill stops the daemon without draining and waits for it to exit.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.drained
	d.cmd.Wait()
	os.RemoveAll(d.state)
}

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads.
type jobStatus struct {
	ID         string          `json:"id"`
	State      string          `json:"state"`
	Error      string          `json:"error"`
	CreatedMS  int64           `json:"created_ms"`
	StartedMS  int64           `json:"started_ms"`
	FinishedMS int64           `json:"finished_ms"`
	Result     json.RawMessage `json:"result"`
}

// jobResult is the part of a terminal job's result the checks read.
type jobResult struct {
	Transpile *struct {
		Compatible bool    `json:"compatible"`
		BehaviorOK bool    `json:"behavior_ok"`
		Coverage   float64 `json:"coverage"`
		FPGAMeanMS float64 `json:"fpga_mean_ms"`
	} `json:"transpile"`
	Check *struct {
		Diagnostics []struct {
			Class string `json:"class"`
		} `json:"diagnostics"`
	} `json:"check"`
	Repair *struct {
		Compatible bool `json:"compatible"`
	} `json:"repair"`
	Fuzz *struct {
		Tests    int     `json:"tests"`
		Coverage float64 `json:"coverage"`
	} `json:"fuzz"`
}

// jobTiming is one job's client-side timeline: POST sent, 202 read,
// event stream closed, final status read.
type jobTiming struct {
	post, accepted, streamed, done time.Time
	status                         jobStatus
	err                            error
}

// cacheCounts matches the cache hit/miss counters in /metrics.
var cacheCounts = regexp.MustCompile(`^cache\.(hits|misses)\.`)

// summaryCache strips the out-of-band cache counters a transpile
// summary carries; they vary with job interleaving by design.
var summaryCache = regexp.MustCompile(` cache=\d+h/\d+m`)

// runServe drives a fresh hgserve with a closed loop of one client per
// CPU. Each client submits its next job, follows the job's NDJSON event
// stream until it closes, then reads the job's status.
func runServe(cfg config, in any, t *tracer) (pass, error) {
	inputs := in.([]serveInput)
	d, err := startServer(cfg)
	if err != nil {
		return pass{}, err
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * runtime.NumCPU()}}
	timings := make([]jobTiming, len(inputs))
	clients := runtime.NumCPU()
	owner := make([]int, len(inputs))       // the client that ran each job
	clientEnd := make([]time.Time, clients) // when each client ran out of jobs
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	root := t.begin("serve-mixed", 0, t0)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(inputs) {
					clientEnd[c] = time.Now()
					return
				}
				owner[i] = c
				timings[i] = submitAndFollow(client, d.base, fmt.Sprintf("bench-%d", c), inputs[i].Body)
			}
		}(c)
	}
	wg.Wait()
	end := time.Now()
	t.end(root, end)
	metrics, merr := fetchMetrics(client, d.base)
	client.CloseIdleConnections()
	u, serr := d.stop()
	if serr != nil {
		return pass{}, serr
	}
	if merr != nil {
		return pass{}, merr
	}

	p := pass{Items: len(inputs), Wall: end.Sub(t0), CPU: u.CPU, RSSMB: float64(u.MaxRSSK) / 1024}
	var digests []string
	for i, in := range inputs {
		tm := timings[i]
		if tm.err != nil || tm.status.State != "done" {
			p.Failed++
			why := tm.status.State + " " + tm.status.Error
			if tm.err != nil {
				why = tm.err.Error()
			}
			p.Problems = append(p.Problems, fmt.Sprintf("job %d (%s): %s", i, in.Kind, why))
			continue
		}
		var r jobResult
		if err := json.Unmarshal(tm.status.Result, &r); err != nil {
			p.Failed++
			p.Problems = append(p.Problems, fmt.Sprintf("job %d (%s): result: %v", i, in.Kind, err))
			continue
		}
		if why := jobCheck(in, r); why != "" {
			p.BadOutput++
			p.Notes = append(p.Notes, fmt.Sprintf("job %d (%s, %s): %s", i, in.Kind, in.Key, why))
		}
		if r.Transpile != nil {
			p.DesignMS = append(p.DesignMS, r.Transpile.FPGAMeanMS)
			p.Coverage = append(p.Coverage, r.Transpile.Coverage)
		}
		if r.Fuzz != nil {
			p.Coverage = append(p.Coverage, r.Fuzz.Coverage)
		}
		digests = append(digests, in.Key+"|"+summaryCache.ReplaceAllString(string(tm.status.Result), ""))
	}
	p.Digest = digestOf(digests...)

	if t != nil {
		p.serveLayers(t, root, t0, clientEnd, owner, inputs, timings, metrics)
	}
	return p, nil
}

// submitAndFollow runs one job through the HTTP API.
func submitAndFollow(client *http.Client, base, clientID string, body []byte) (tm jobTiming) {
	tm.post = time.Now()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		tm.err = err
		return tm
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", clientID)
	resp, err := client.Do(req)
	if err != nil {
		tm.err = err
		return tm
	}
	var st jobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	tm.accepted = time.Now()
	if resp.StatusCode != http.StatusAccepted || derr != nil {
		tm.err = fmt.Errorf("submit: HTTP %d (%v)", resp.StatusCode, derr)
		return tm
	}
	resp, err = client.Get(base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		tm.err = err
		return tm
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tm.streamed = time.Now()
	if err != nil {
		tm.err = fmt.Errorf("events: %w", err)
		return tm
	}
	resp, err = client.Get(base + "/v1/jobs/" + st.ID)
	if err != nil {
		tm.err = err
		return tm
	}
	err = json.NewDecoder(resp.Body).Decode(&tm.status)
	resp.Body.Close()
	tm.done = time.Now()
	if err != nil {
		tm.err = fmt.Errorf("status: %w", err)
	}
	return tm
}

// jobCheck is a finished job's output check: check jobs flag every
// planted class, repair and transpile designs are compatible, and fuzz
// jobs produce tests.
func jobCheck(in serveInput, r jobResult) string {
	switch in.Kind {
	case kindCheck:
		if r.Check == nil {
			return "no check result"
		}
		flagged := map[string]bool{}
		for _, d := range r.Check.Diagnostics {
			flagged[d.Class] = true
		}
		var missed []string
		for _, c := range in.Planted {
			if !flagged[c] {
				missed = append(missed, c)
			}
		}
		if len(missed) > 0 {
			return "planted classes not flagged: " + strings.Join(missed, ",")
		}
	case kindRepair:
		if r.Repair == nil || !r.Repair.Compatible {
			return "repair result not compatible"
		}
	case kindTranspile:
		if r.Transpile == nil || !r.Transpile.Compatible {
			return "transpile result not compatible"
		}
	case kindFuzz:
		if r.Fuzz == nil || r.Fuzz.Tests == 0 {
			return "fuzz job produced no tests"
		}
	}
	return ""
}

// fetchMetrics reads the daemon's counters.
func fetchMetrics(client *http.Client, base string) (map[string]int64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return m.Counters, nil
}

// serveLayers records a span per client, from the start of the loop
// until the client ran out of jobs, with each job's spans below it, and
// computes the serve-layer metrics. serve.busy_s is the time clients
// spent inside a job's HTTP calls; with core.other_s it is divided by
// the number of clients (see layerTimes).
func (p *pass) serveLayers(t *tracer, root int, t0 time.Time, clientEnd []time.Time, owner []int,
	inputs []serveInput, timings []jobTiming, counters map[string]int64) {
	p.Layers = map[string]float64{}
	l := p.Layers
	spans := make([]int, len(clientEnd))
	for c, end := range clientEnd {
		spans[c] = t.add(fmt.Sprintf("client.%d", c), root, t0, end)
	}
	var latency, submit, queue []time.Duration
	run := map[string][]time.Duration{}
	for i, tm := range timings {
		if tm.err != nil {
			continue
		}
		js := t.add("job."+inputs[i].Kind, spans[owner[i]], tm.post, tm.done)
		t.add("submit", js, tm.post, tm.accepted)
		t.add("events", js, tm.accepted, tm.streamed)
		t.add("status", js, tm.streamed, tm.done)
		latency = append(latency, tm.done.Sub(tm.post))
		submit = append(submit, tm.accepted.Sub(tm.post))
		queue = append(queue, time.Duration(tm.status.StartedMS-tm.status.CreatedMS)*time.Millisecond)
		run[inputs[i].Kind] = append(run[inputs[i].Kind],
			time.Duration(tm.status.FinishedMS-tm.status.StartedMS)*time.Millisecond)
	}
	p.traceLayers(t)
	p.setPercentile("serve.latency_p50_ms", latency, 50)
	p.setPercentile("serve.latency_p95_ms", latency, 95)
	p.setPercentile("serve.submit_p50_ms", submit, 50)
	p.setPercentile("serve.queue_wait_p50_ms", queue, 50)
	p.setPercentile("serve.queue_wait_p95_ms", queue, 95)
	for _, k := range jobKinds {
		p.setPercentile("serve."+k+".run_p50_ms", run[k], 50)
	}
	var hits, lookups, rejected int64
	for name, v := range counters {
		if m := cacheCounts.FindStringSubmatch(name); m != nil {
			lookups += v
			if m[1] == "hits" {
				hits += v
			}
		}
		if strings.HasPrefix(name, "serve.jobs.rejected.") {
			rejected += v
		}
	}
	if lookups > 0 {
		l["evalcache.hit_ratio"] = float64(hits) / float64(lookups)
	}
	l["serve.rejected"] = float64(rejected)
	l["serve.failed"] = float64(p.Failed)
}
