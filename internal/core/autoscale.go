package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"disarcloud/internal/elastic"
)

// ErrAdmissionRejected is the sentinel every *AdmissionError wraps: the
// deadline-aware scheduler predicted that, given the current backlog, the
// job could not complete inside its own TmaxSeconds, and rejected it at
// submission instead of letting it burn a worker slot and then time out.
var ErrAdmissionRejected = errors.New("core: admission rejected: predicted completion exceeds the job deadline")

// AdmissionError carries the numbers behind an admission rejection, so the
// HTTP front end can surface a Retry-After hint alongside the 503.
type AdmissionError struct {
	// PredictedSeconds is the estimated completion time of the job were it
	// admitted now: backlog drain time plus the job's own estimate.
	PredictedSeconds float64
	// TmaxSeconds is the job's deadline the prediction busts.
	TmaxSeconds float64
	// RetryAfterSeconds is the estimated backlog drain time — how long the
	// client should wait before the submission has a chance of admission.
	// Meaningless when Infeasible is set.
	RetryAfterSeconds float64
	// Infeasible means the job's own estimated runtime already exceeds its
	// Tmax: no amount of backlog drain makes it admissible, so retrying is
	// pointless (the HTTP front end maps this to 400, not 503+Retry-After).
	Infeasible bool
}

// Error implements error.
func (e *AdmissionError) Error() string {
	if e.Infeasible {
		return fmt.Sprintf("%v: predicted runtime %.1fs alone exceeds Tmax %.1fs (infeasible at any load)",
			ErrAdmissionRejected, e.PredictedSeconds, e.TmaxSeconds)
	}
	return fmt.Sprintf("%v: predicted %.1fs against Tmax %.1fs (retry in ~%.1fs)",
		ErrAdmissionRejected, e.PredictedSeconds, e.TmaxSeconds, e.RetryAfterSeconds)
}

// Unwrap makes errors.Is(err, ErrAdmissionRejected) work.
func (e *AdmissionError) Unwrap() error { return ErrAdmissionRejected }

// errQueueFull builds the capacity-annotated ErrQueueFull Submit returns.
func errQueueFull(capacity int) error {
	return fmt.Errorf("%w (depth %d)", ErrQueueFull, capacity)
}

// RuntimeEstimator predicts the runtime of a job, in the same seconds
// currency as Constraints.TmaxSeconds. The second return is false when no
// estimate is available (e.g. untrained models), in which case the scheduler
// admits the job unconditionally — admission control only ever acts on a
// positive prediction, mirroring Algorithm 1's bootstrap phase.
type RuntimeEstimator interface {
	EstimateSeconds(spec SimulationSpec) (float64, bool)
}

// EstimatorFunc adapts a function to the RuntimeEstimator interface.
type EstimatorFunc func(spec SimulationSpec) (float64, bool)

// EstimateSeconds implements RuntimeEstimator.
func (f EstimatorFunc) EstimateSeconds(spec SimulationSpec) (float64, bool) { return f(spec) }

// PredictorEstimator estimates a job's runtime from the deployer's
// knowledge-base-trained ensemble: the fastest predicted execution time over
// the catalog within the job's own MaxNodes bound — the same quantity
// Algorithm 1's feasibility test uses, reused here for backlog ETA and
// admission control. Untrained architectures report no estimate.
func PredictorEstimator(d *Deployer) RuntimeEstimator {
	return EstimatorFunc(func(spec SimulationSpec) (float64, bool) {
		whole := aggregateBlock(spec, "/eta")
		if err := whole.Validate(); err != nil {
			return 0, false
		}
		f := whole.Params()
		best := 0.0
		for _, it := range d.catalog {
			for n := 1; n <= spec.Constraints.MaxNodes; n++ {
				secs, err := d.pred.PredictSeconds(it.Name, n, f)
				if err != nil {
					break // untrained at every n for this architecture
				}
				if best == 0 || secs < best {
					best = secs
				}
			}
		}
		return best, best > 0
	})
}

// ScalingEvent is one autoscaler decision, as exposed through the status
// endpoint and the event stream.
type ScalingEvent = elastic.Decision

// AutoscalerStatus is a point-in-time view of the elastic control plane.
type AutoscalerStatus struct {
	// Enabled is false when the service runs a fixed pool (no controller).
	Enabled bool
	// Policy names the decision layer in force ("reactive", "hybrid",
	// "learned", or a custom WithScalingPolicy implementation); empty on a
	// fixed pool.
	Policy string
	// PolicyParams reports the active policy's hyperparameters, a flat
	// name->value map stable enough to diff across deploys, when it has a
	// Params method (all built-in policies do): thresholds for reactive,
	// thresholds plus the planner's headroom for hybrid, the Q-table's
	// training hyperparameters for learned. Nil otherwise.
	PolicyParams map[string]float64
	// Workers is the pool's current target; LiveWorkers counts goroutines
	// still draining after a shrink decision.
	Workers     int
	LiveWorkers int
	// Queued / InFlight mirror the scheduler.
	Queued   int
	InFlight int
	// BacklogETASeconds is the estimator-summed runtime of the queued jobs.
	BacklogETASeconds float64
	// Config is the elastic configuration in force (zero when disabled).
	Config elastic.Config
	// DroppedEvents counts scaling events lost to slow subscribers over the
	// service's lifetime (summed across subscribers, unsubscribed ones
	// included). A growing value means an events consumer is not keeping up
	// with its buffer.
	DroppedEvents uint64
	// Recent holds the latest scaling decisions, oldest first.
	Recent []ScalingEvent
}

// TickerFunc supplies the control loop's time source: it returns a tick
// channel and a stop function. The default wraps time.NewTicker; tests
// inject a manual channel so control-loop sampling and decision application
// are deterministic without sleeps.
type TickerFunc func(d time.Duration) (<-chan time.Time, func())

// defaultTicker is the production TickerFunc.
func defaultTicker(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(d)
	return t.C, t.Stop
}

// eventSub is one scaling-event subscriber with its drop counter: events
// the buffered channel could not take because the consumer lagged.
type eventSub struct {
	ch      chan ScalingEvent
	dropped uint64
}

// autoscaler is the service-side state of the elastic control plane: the
// controller driving the scaling policy, the decision history ring, and the
// event subscribers.
type autoscaler struct {
	ctrl      *elastic.Controller
	cfg       elastic.Config // defaulted
	tick      time.Duration
	newTicker TickerFunc
	// lastSubmitted differences the scheduler's monotone submission counter
	// into per-tick arrivals; only the control loop touches it.
	lastSubmitted uint64

	mu           sync.Mutex
	recent       []ScalingEvent
	subs         []*eventSub
	totalDropped uint64 // drops ever, surviving unsubscribes
	closed       bool
}

// maxRecentDecisions bounds the per-service decision history.
const maxRecentDecisions = 64

// record appends a decision to the history ring and fans it out to
// subscribers; slow subscribers lose events, as with job progress, but
// every loss is counted — per subscriber and in the service-lifetime total
// AutoscalerStatus surfaces.
func (a *autoscaler) record(dec ScalingEvent) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.recent = append(a.recent, dec)
	if len(a.recent) > maxRecentDecisions {
		a.recent = a.recent[len(a.recent)-maxRecentDecisions:]
	}
	for _, sub := range a.subs {
		select {
		case sub.ch <- dec:
		default:
			sub.dropped++
			a.totalDropped++
		}
	}
}

// subscribe registers an event channel; the returned func unsubscribes.
func (a *autoscaler) subscribe(buffer int) (<-chan ScalingEvent, func()) {
	sub := &eventSub{ch: make(chan ScalingEvent, buffer)}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		close(sub.ch)
		return sub.ch, func() {}
	}
	a.subs = append(a.subs, sub)
	var once sync.Once
	return sub.ch, func() {
		once.Do(func() {
			a.mu.Lock()
			defer a.mu.Unlock()
			for i, s := range a.subs {
				if s == sub {
					a.subs = append(a.subs[:i], a.subs[i+1:]...)
					close(sub.ch)
					return
				}
			}
		})
	}
}

// dropped returns the lifetime count of events lost to slow subscribers.
func (a *autoscaler) dropped() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.totalDropped
}

// close releases every subscriber.
func (a *autoscaler) close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	a.closed = true
	for _, sub := range a.subs {
		close(sub.ch)
	}
	a.subs = nil
}

// snapshotRecent copies the decision history.
func (a *autoscaler) snapshotRecent() []ScalingEvent {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]ScalingEvent(nil), a.recent...)
}

// Resize moves the worker-pool target to n. Growth spawns workers
// immediately; shrinking lets excess workers finish their current job and
// retire at the next queue pop, so running valuations are never interrupted.
// On an elastic service the controller keeps adjusting the pool afterwards;
// Resize is then a manual nudge, bounded below by 1 like any pool.
func (s *Service) Resize(n int) error {
	if n < 1 {
		return errors.New("core: pool size must be at least one worker")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServiceClosed
	}
	s.mu.Unlock()
	s.spawn(s.sched.setTarget(n))
	s.notifyScale(n)
	return nil
}

// notifyScale informs the process-scaling hook of a new pool target.
func (s *Service) notifyScale(target int) {
	if s.procScale != nil {
		s.procScale(target)
	}
}

// spawn starts n worker goroutines (their live count is already reserved by
// the scheduler).
func (s *Service) spawn(n int) {
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Workers returns the worker pool's current target size.
func (s *Service) Workers() int { return s.sched.workers() }

// AutoscalerStatus returns a snapshot of the elastic control plane. On a
// fixed-pool service only the pool/queue gauges are populated.
func (s *Service) AutoscalerStatus() AutoscalerStatus {
	st := s.sched.stats()
	out := AutoscalerStatus{
		Workers:           st.Target,
		LiveWorkers:       st.LiveWorkers,
		Queued:            st.Queued,
		InFlight:          st.InFlight,
		BacklogETASeconds: st.QueuedETA,
	}
	if s.scaler != nil {
		out.Enabled = true
		pol := s.scaler.ctrl.Policy()
		out.Policy = pol.Name()
		if pp, ok := pol.(interface{ Params() map[string]float64 }); ok {
			out.PolicyParams = pp.Params()
			if s.fc != nil {
				out.PolicyParams["headroom"] = s.fc.planner.Headroom
			}
		}
		out.Config = s.scaler.cfg
		out.DroppedEvents = s.scaler.dropped()
		out.Recent = s.scaler.snapshotRecent()
	}
	return out
}

// AutoscalerEvents subscribes to the stream of scaling decisions, in the
// style of the per-job Progress stream: the channel closes when the service
// closes, the returned func unsubscribes early, and slow consumers lose
// events rather than stalling the control loop. On a fixed-pool service the
// channel is already closed.
func (s *Service) AutoscalerEvents(buffer int) (<-chan ScalingEvent, func()) {
	if s.scaler == nil {
		ch := make(chan ScalingEvent)
		close(ch)
		return ch, func() {}
	}
	return s.scaler.subscribe(buffer)
}

// controlLoop drives controlTick on the configured time source until the
// service closes. It runs on the service's WaitGroup so Close observes its
// exit. The time source is injectable (WithControlTicker) so tests drive
// ticks deterministically; a closed tick channel also ends the loop.
func (s *Service) controlLoop() {
	defer s.wg.Done()
	ticks, stop := s.scaler.newTicker(s.scaler.tick)
	defer stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case now, ok := <-ticks:
			if !ok {
				return
			}
			s.controlTick(now)
		}
	}
}

// controlTick is one control-loop iteration: sample the scheduler into an
// observation — the tick's arrivals, differenced once, are both its arrival
// rate and the forecast recorder's sample, and the forecast planner's
// target rides along as Obs.Plan — step the scaling policy through the
// controller, and apply its decision.
func (s *Service) controlTick(now time.Time) {
	st := s.sched.stats()
	arrivals := st.SubmittedTotal - s.scaler.lastSubmitted
	s.scaler.lastSubmitted = st.SubmittedTotal
	obs := elastic.Obs{
		Queued:            st.Queued,
		InFlight:          st.InFlight,
		Workers:           st.Target,
		BacklogETASeconds: st.QueuedETA,
		RatePerTick:       float64(arrivals),
	}
	if !st.EarliestDeadline.IsZero() {
		obs.SlackSeconds = st.EarliestDeadline.Sub(now).Seconds()
	}
	if s.fc != nil {
		s.fc.record(now, st, int(arrivals))
		obs.Plan = s.fc.plan(s.scaler.tick, s.scaler.cfg.MaxWorkers)
	}
	dec, act := s.scaler.ctrl.Decide(elastic.Signals{Now: now, Obs: obs})
	if !act || dec.Target == st.Target {
		return
	}
	s.spawn(s.sched.setTarget(dec.Target))
	s.scaler.record(dec)
	s.notifyScale(dec.Target)
}
