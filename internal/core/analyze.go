package core

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"strings"
	"time"

	"unprotected/internal/campaign"
	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/faultstore"
	"unprotected/internal/logstore"
	"unprotected/internal/stream"
	"unprotected/internal/timebase"
)

// Option configures the one call it belongs to: WithController,
// WithObservers and WithoutDataset go to Analyze; WithWorkers to Logs or
// Store; WithNodes, WithTimeRange and WithDegraded to Store. Simulate
// takes none (it reads Config.Workers). An option given anywhere else,
// or with an invalid value, is a descriptive error — never silently
// ignored or clamped.
type Option func(*options) error

// options is the resolved option set of one call.
type options struct {
	at string // the call being configured: "Analyze", "Logs" or "Store"

	// Analyze.
	controller    cluster.NodeID
	hasController bool
	observers     []stream.Observer
	noDataset     bool
	// Logs and Store.
	workers int
	// Store: the predicates and read mode of its query.
	query faultstore.Query
}

func (o *options) apply(at string, opts []Option) error {
	o.at = at
	for _, opt := range opts {
		if opt == nil {
			return errors.New("nil Option")
		}
		if err := opt(o); err != nil {
			return err
		}
	}
	return nil
}

// accept reports an error naming the option's homes unless the call
// being configured is one of them.
func (o *options) accept(name string, homes ...string) error {
	if slices.Contains(homes, o.at) {
		return nil
	}
	return fmt.Errorf("%s goes to %s, not %s", name, strings.Join(homes, " or "), o.at)
}

// WithWorkers bounds the worker pool of a Logs or Store source. Zero
// selects GOMAXPROCS; negative values are rejected. A simulation reads
// Config.Workers instead.
func WithWorkers(n int) Option {
	return func(o *options) error {
		if err := o.accept("WithWorkers", "Logs", "Store"); err != nil {
			return fmt.Errorf("%w (a simulation reads Config.Workers)", err)
		}
		if n < 0 {
			return fmt.Errorf("workers must be >= 0, got %d (0 selects GOMAXPROCS)", n)
		}
		o.workers = n
		return nil
	}
}

// WithController names, to Analyze, the permanently failing node
// excluded from MTBF-style analyses (§III-I). The empty string disables
// the exclusion. For a simulation source this overrides the profile's
// controller node; for a log or store source it is the only way to
// identify it — log files do not record which node was the controller.
func WithController(node string) Option {
	return func(o *options) error {
		if err := o.accept("WithController", "Analyze"); err != nil {
			return err
		}
		o.hasController = true
		if node == "" {
			o.controller = cluster.NodeID{}
			return nil
		}
		id, err := cluster.ParseNodeID(node)
		if err != nil {
			return fmt.Errorf("bad controller node: %w", err)
		}
		o.controller = id
		return nil
	}
}

// WithObservers attaches, to Analyze, external one-pass accumulators:
// each observer sees every fault and session in canonical order, in the
// same single pass that feeds the internal figure accumulators, and its
// Finish runs once the stream ends. A Finish error fails Analyze.
func WithObservers(obs ...stream.Observer) Option {
	return func(o *options) error {
		if err := o.accept("WithObservers", "Analyze"); err != nil {
			return err
		}
		for _, ob := range obs {
			if ob == nil {
				return errors.New("nil Observer")
			}
		}
		o.observers = append(o.observers, obs...)
		return nil
	}
}

// WithoutDataset makes Analyze a pure-streaming run: the Study's dataset
// slices stay empty (nothing is materialized per event) while the figure
// accumulators and any WithObservers attachments are still fed. Use it
// when the consumers are the observers themselves; report sections that
// recompute from the slices will see an empty dataset.
func WithoutDataset() Option {
	return func(o *options) error {
		if err := o.accept("WithoutDataset", "Analyze"); err != nil {
			return err
		}
		o.noDataset = true
		return nil
	}
}

// WithNodes restricts a Store source to the named nodes: only their
// faults and sessions are delivered, and segments whose index node set
// is disjoint are never opened. It goes to Store; anywhere else it is an
// error.
func WithNodes(nodes ...string) Option {
	return func(o *options) error {
		if err := o.accept("WithNodes", "Store"); err != nil {
			return err
		}
		if len(nodes) == 0 {
			return errors.New("WithNodes: no nodes given")
		}
		for _, n := range nodes {
			id, err := cluster.ParseNodeID(n)
			if err != nil {
				return fmt.Errorf("WithNodes: %w", err)
			}
			o.query.Nodes = append(o.query.Nodes, id)
		}
		return nil
	}
}

// WithTimeRange restricts a Store source to records whose prune key —
// fault first-observation time, session start time — falls in the
// half-open interval [from, to). Segments whose index bounds fall
// outside are never opened. It goes to Store; anywhere else it is an
// error.
func WithTimeRange(from, to time.Time) Option {
	return func(o *options) error {
		if err := o.accept("WithTimeRange", "Store"); err != nil {
			return err
		}
		if !from.Before(to) {
			return fmt.Errorf("WithTimeRange: from %v is not before to %v", from, to)
		}
		o.query.HasRange = true
		o.query.From = timebase.FromTime(from)
		o.query.To = timebase.FromTime(to)
		return nil
	}
}

// StoreHealth is the queryable report of a degraded store read: every
// segment the query had to skip, with the error and the index-declared
// record counts the skip cost. The zero value is ready to pass to
// WithDegraded.
type StoreHealth = faultstore.Health

// WithDegraded switches a Store source to degraded reads: a segment that
// cannot be read or fails its CRC is skipped — with its diagnostics and
// index-declared record counts recorded in h, when non-nil — instead of
// failing the whole analysis. Strict hard-error remains the default: a
// reliability study must opt in to half-trusting its own storage. It
// goes to Store; anywhere else it is an error.
func WithDegraded(h *faultstore.Health) Option {
	return func(o *options) error {
		if err := o.accept("WithDegraded", "Store"); err != nil {
			return err
		}
		o.query.Degraded = true
		o.query.Health = h
		return nil
	}
}

// simSource adapts the campaign engine to the Source interface.
type simSource struct {
	cfg *campaign.Config
}

// Simulate returns the Source that executes the campaign described by
// cfg. It takes no options: the worker pool is Config.Workers. Pass it
// to Analyze, or range over Events directly for a custom consumer.
func Simulate(cfg *campaign.Config) stream.Source { return &simSource{cfg: cfg} }

func (s *simSource) Events(ctx context.Context) iter.Seq2[stream.Event, error] {
	if s.cfg == nil {
		return func(yield func(stream.Event, error) bool) {
			yield(stream.Event{}, errors.New("unprotected: Simulate: nil Config (use DefaultConfig)"))
		}
	}
	return campaign.Events(ctx, s.cfg)
}

// logSource adapts the log-replay loader to the Source interface.
type logSource struct {
	dir     string
	workers int
	err     error // first constructor-option error, surfaced on use
}

// Logs returns the Source that replays a directory of per-node log files
// — the paper's actual workflow. It takes WithWorkers only; any other
// option, or an invalid value, surfaces as the error of the first Events
// delivery (and so from Analyze).
func Logs(dir string, opts ...Option) stream.Source {
	var o options
	err := o.apply("Logs", opts)
	return &logSource{dir: dir, workers: o.workers, err: err}
}

func (s *logSource) Events(ctx context.Context) iter.Seq2[stream.Event, error] {
	if s.err != nil {
		return func(yield func(stream.Event, error) bool) {
			yield(stream.Event{}, fmt.Errorf("unprotected: Logs: %w", s.err))
		}
	}
	return logstore.Events(ctx, s.dir, s.workers)
}

// Analyze drains src once and assembles the Study: the dataset slices
// (unless WithoutDataset), the incremental figure accumulators, and every
// attached observer are all fed element by element from the same single
// pass, in the canonical stream order. It is the one entry point both
// dataset sources — and any external Source implementation — share.
//
// Cancelling ctx aborts the run: the source winds its producers down
// leak-free and Analyze returns ctx.Err(). Invalid options (an
// unparseable controller node, a nil observer, a source option such as
// WithWorkers or WithNodes, which goes to the source's constructor) are
// reported before the stream starts.
func Analyze(ctx context.Context, src stream.Source, opts ...Option) (*Study, error) {
	if src == nil {
		return nil, errors.New("unprotected: Analyze: nil Source")
	}
	var o options
	if err := o.apply("Analyze", opts); err != nil {
		return nil, fmt.Errorf("unprotected: Analyze: %w", err)
	}

	// Only a simulation knows its study metadata; a replayed directory or
	// store records neither controller nor topology, and the paper's is
	// the only topology the per-node analyses know how to map.
	var controller, pathological cluster.NodeID
	sim, _ := src.(*simSource)
	if sim != nil && sim.cfg != nil && sim.cfg.Profile != nil {
		controller, pathological = sim.cfg.Profile.ControllerNode, sim.cfg.Profile.PathologicalNode
	}
	if o.hasController {
		controller = o.controller
	}

	sink := newStreamSink(controller, pathological)
	sink.collect = !o.noDataset
	sink.observers = o.observers

	var st stream.Stats
	for ev, err := range src.Events(ctx) {
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case stream.KindStats:
			if ev.Stats != nil {
				st = *ev.Stats
				if sink.collect {
					sink.dataset.Faults = make([]extract.Fault, 0, st.Faults)
					sink.dataset.Sessions = make([]eventlog.Session, 0, st.Sessions)
				}
			}
		case stream.KindFault:
			sink.fault(ev.Fault)
		case stream.KindSession:
			sink.session(ev.Session)
		}
	}
	// Belt and braces: a well-behaved source surfaces cancellation as its
	// final iterator error, but a custom one may just stop yielding.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, ob := range o.observers {
		if err := ob.Finish(); err != nil {
			return nil, fmt.Errorf("unprotected: Analyze: observer: %w", err)
		}
	}

	// The campaign engine defaults a simulation's topology during the
	// run, so it is read only once the stream has been drained.
	topo := cluster.PaperTopology()
	if sim != nil && sim.cfg.Topo != nil {
		topo = sim.cfg.Topo
	}
	study := sink.study(topo, st.RawLogs, st.RawLogsByNode)
	if sim != nil {
		study.Config = sim.cfg
	}
	return study, nil
}
