package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"unprotected"
	"unprotected/internal/monitor"
)

// backlogShare is the fraction of every node's lines the live directory
// holds before the monitor's cold start; the rest arrives in rounds.
const backlogShare = 0.7

// liveState is the seed's export split into a backlog and per-round
// appends for every node file.
type liveState struct {
	dir, stageDir, liveDir string
	files                  []liveFile
	bytes                  int64
	// oracle is the one-shot Logs report of the complete files, which the
	// quiescent monitor must reproduce; prepare computes it once per run,
	// outside set-up and every timed pass.
	oracle []byte
}

// liveFile is one node file: the backlog prefix and the held-back lines
// cut into one slice per round, all at line boundaries.
type liveFile struct {
	name   string
	head   []byte
	rounds [][]byte
}

func setupLive(ctx context.Context, r *runner, dir string) (state, error) {
	s := &liveState{dir: dir, stageDir: filepath.Join(dir, "stage"), liveDir: filepath.Join(dir, "live")}
	if _, _, err := exportSeed(ctx, r, s.stageDir); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(s.stageDir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(s.stageDir, e.Name()))
		if err != nil {
			return nil, err
		}
		s.bytes += int64(len(data))
		s.files = append(s.files, splitLines(e.Name(), data, r.rounds))
	}
	return s, s.stage()
}

// splitLines cuts data after the first backlogShare of its lines and
// divides the remaining lines into n near-equal slices.
func splitLines(name string, data []byte, n int) liveFile {
	var ends []int // offset just past each line
	for i, b := range data {
		if b == '\n' {
			ends = append(ends, i+1)
		}
	}
	at := func(line int) int {
		if line == 0 {
			return 0
		}
		return ends[line-1]
	}
	lines := len(ends)
	cut := int(float64(lines)*backlogShare + 0.5)
	f := liveFile{name: name, head: data[:at(cut)]}
	for i := 0; i < n; i++ {
		lo := cut + (lines-cut)*i/n
		hi := cut + (lines-cut)*(i+1)/n
		f.rounds = append(f.rounds, data[at(lo):at(hi)])
	}
	return f
}

func (s *liveState) fingerprint() string {
	var held int64
	for _, f := range s.files {
		for _, r := range f.rounds {
			held += int64(len(r))
		}
	}
	return fmt.Sprintf("files=%d bytes=%d held=%d", len(s.files), s.bytes, held)
}

func (s *liveState) close() error { return os.RemoveAll(s.dir) }

// prepare renders the oracle report from the complete staged files.
func (s *liveState) prepare(ctx context.Context, r *runner) error {
	study, err := analyze(ctx, r, unprotected.Logs(s.stageDir), nil)
	if err != nil {
		return fmt.Errorf("live-fleet oracle: %w", err)
	}
	s.oracle = renderReport(study)
	return nil
}

// stage writes the backlog into the live directory.
func (s *liveState) stage() error {
	if err := os.MkdirAll(s.liveDir, 0o755); err != nil {
		return err
	}
	for _, f := range s.files {
		if err := os.WriteFile(filepath.Join(s.liveDir, f.name), f.head, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// restage cuts every live file back to its backlog. The appends only
// added bytes, so truncation restores the staged state without
// rewriting (and re-flushing) the backlog before each cold start.
func (s *liveState) restage() error {
	for _, f := range s.files {
		if err := os.Truncate(filepath.Join(s.liveDir, f.name), int64(len(f.head))); err != nil {
			return err
		}
	}
	return nil
}

// appendRound appends round i's slice to every node file, the way a
// fleet of scanners each writes its own log.
func (s *liveState) appendRound(i int) error {
	for _, f := range s.files {
		if len(f.rounds[i]) == 0 {
			continue
		}
		fh, err := os.OpenFile(filepath.Join(s.liveDir, f.name), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		if _, err := fh.Write(f.rounds[i]); err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
	}
	return nil
}

// stepTicker is the monitor's injected poll ticker: after every poll
// round (once its snapshot is published) it signals ready, then blocks
// until the benchmark releases the next round.
type stepTicker struct {
	ready, release chan struct{}
}

func (t *stepTicker) wait(ctx context.Context) bool {
	select {
	case t.ready <- struct{}{}:
	case <-ctx.Done():
		return false
	}
	select {
	case <-t.release:
		return true
	case <-ctx.Done():
		return false
	}
}

func (s *liveState) pass(ctx context.Context, r *runner, tr *tracer) (*passOut, error) {
	if err := s.restage(); err != nil {
		return nil, err
	}
	tick := &stepTicker{ready: make(chan struct{}), release: make(chan struct{})}
	m, err := monitor.New(s.liveDir, monitor.WithController(r.controller), monitor.WithTicker(tick.wait))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: m.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(context.Background())
		<-served
	}()

	runCtx, stopRun := context.WithCancel(ctx)
	ran := make(chan error, 1)
	defer func() {
		stopRun()
		<-ran
	}()
	// next waits for the monitor to publish the round it is in.
	next := func() error {
		select {
		case <-tick.ready:
			return nil
		case err := <-ran:
			ran <- err // keep it for the deferred wait
			return fmt.Errorf("monitor stopped: %v", err)
		}
	}

	t0 := time.Now()
	go func() { ran <- m.Run(runCtx) }()
	if err := next(); err != nil {
		return nil, err
	}
	backlog := time.Since(t0)

	url := "http://" + ln.Addr().String() + "/study"
	readCtx, stopRead := context.WithCancel(ctx)
	readDone := make(chan readerOut, 1)
	go func() { readDone <- readStudy(readCtx, url) }()

	var rounds []time.Duration
	var roundErr error
	for i := 0; i < r.rounds && roundErr == nil; i++ {
		if roundErr = s.appendRound(i); roundErr != nil {
			break
		}
		ta := time.Now()
		select {
		case tick.release <- struct{}{}:
		case err := <-ran:
			ran <- err
			roundErr = fmt.Errorf("monitor stopped: %v", err)
			continue
		}
		if roundErr = next(); roundErr == nil {
			rounds = append(rounds, time.Since(ta))
		}
	}
	stopRead()
	rd := <-readDone
	if roundErr != nil {
		return nil, roundErr
	}
	total := backlog
	for _, d := range rounds {
		total += d
		tr.add("monitor.round", d, 1)
	}

	r.attempted += rd.attempted
	r.failed += rd.failed
	for _, err := range rd.errs {
		if len(r.problems) < maxProblems {
			r.problems = append(r.problems, "live-fleet: GET /study: "+err.Error())
		}
	}

	snap := m.Snapshot()
	r.check(snap != nil && snap.Epoch == int64(r.rounds+1), "live-fleet: epoch %v after %d rounds, want %d", epochOf(snap), r.rounds, r.rounds+1)
	var quiescent []byte
	if snap != nil {
		quiescent = renderReport(snap.Study)
	}
	r.check(bytes.Equal(quiescent, s.oracle), "live-fleet: quiescent monitor report %s differs from the one-shot Logs report %s", digest(quiescent), digest(s.oracle))
	body, err := getOnce(ctx, url)
	r.check(err == nil, "live-fleet: final GET /study: %v", err)

	st := m.Stats()
	tr.add("monitor.epochs", 0, epochOf(snap))
	tr.add("monitor.study_bytes", 0, int64(len(body)))
	tr.add("logstore.follow_lines", 0, st.Lines.Load())
	tr.add("logstore.follow_rounds", 0, st.Rounds.Load())
	tr.add("logstore.follow_reopens", 0, st.Reopens.Load())

	return &passOut{
		study:     backlog,
		total:     total,
		steps:     map[string]time.Duration{"backlog_s": backlog, "round_p50_s": durMedian(rounds)},
		latencies: rd.latencies,
		counters: map[string]int64{
			"follow_lines":   st.Lines.Load(),
			"follow_rounds":  st.Rounds.Load(),
			"follow_reopens": st.Reopens.Load(),
			"epochs":         epochOf(snap),
			"study_bytes":    int64(len(body)),
			"report_bytes":   int64(len(quiescent)),
		},
	}, nil
}

func epochOf(s *monitor.Snapshot) int64 {
	if s == nil {
		return 0
	}
	return s.Epoch
}

// readerOut is what the closed-loop /study reader saw.
type readerOut struct {
	latencies         []float64 // microseconds, successful GETs only
	attempted, failed int64
	errs              []error // the first few failures
}

// readStudy GETs url back to back, each request sent once the previous
// response is fully read, until ctx is cancelled. A request cut short by
// the cancellation is not counted.
func readStudy(ctx context.Context, url string) readerOut {
	var out readerOut
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	var body bytes.Buffer
	for ctx.Err() == nil {
		t0 := time.Now()
		err := get(ctx, client, url, &body)
		d := time.Since(t0)
		if ctx.Err() != nil {
			break
		}
		out.attempted++
		if err == nil && !bytes.HasPrefix(body.Bytes(), []byte(`{"epoch":`)) {
			err = fmt.Errorf("unexpected body %.40q", body.Bytes())
		}
		if err != nil {
			out.failed++
			if len(out.errs) < 3 {
				out.errs = append(out.errs, err)
			}
			continue
		}
		out.latencies = append(out.latencies, float64(d.Nanoseconds())/1e3)
	}
	return out
}

func get(ctx context.Context, client *http.Client, url string, body *bytes.Buffer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body.Reset()
	if _, err := body.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return errors.New(resp.Status)
	}
	return nil
}

func getOnce(ctx context.Context, url string) ([]byte, error) {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	var body bytes.Buffer
	err := get(ctx, &http.Client{Transport: tr}, url, &body)
	return body.Bytes(), err
}
