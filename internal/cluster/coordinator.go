package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"disarcloud/internal/alm"
	"disarcloud/internal/core"
	"disarcloud/internal/eeb"
	"disarcloud/internal/grid"
	"disarcloud/internal/kb"
)

// DefaultHeartbeat is the worker heartbeat cadence handed out at join.
const DefaultHeartbeat = time.Second

// Launcher starts worker processes, the hook elastic process scaling pulls
// on. StartWorker launches one worker that will register with the
// coordinator on its own; the returned stop function terminates it.
type Launcher interface {
	StartWorker() (stop func(), err error)
}

// CoordinatorConfig customises a Coordinator.
type CoordinatorConfig struct {
	// HeartbeatEvery is the cadence workers are told to beat at; zero means
	// DefaultHeartbeat.
	HeartbeatEvery time.Duration
	// DeadAfter is the silence window after which a worker is considered
	// lost; zero means 3x the heartbeat.
	DeadAfter time.Duration
	// KB, when non-nil, is served at /v1/kb and is the merge target of
	// SyncKB — the knowledge-base replication half of the cluster.
	KB *kb.KB
	// Launcher, when non-nil, enables process scaling (ScaleTo and the
	// ProcessScaler hook).
	Launcher Launcher
	// LocalWorkers sizes the in-process grid used when no workers are
	// registered (or a block cannot ship); zero falls back to the request's
	// own worker hint.
	LocalWorkers int
}

// member is one registered worker.
type member struct {
	id    string
	name  string
	addr  string
	slots int

	lastBeat time.Time
	dead     bool // set on a failed dispatch; a fresh heartbeat revives
	revoked  bool // spot instance reclaimed; only a re-join clears this
}

// Coordinator is the cluster-side DiMaS: it owns worker membership, scatters
// type-B blocks across the registered workers as outer-path slices, gathers
// and assembles the results, and re-slices the work of a lost worker onto
// the survivors. It implements core.BlockRunner, which is how a clustered
// deployer routes every valuation through it.
type Coordinator struct {
	heartbeat time.Duration
	deadAfter time.Duration
	kb        *kb.KB
	launcher  Launcher
	localW    int
	client    *http.Client

	mu      sync.Mutex
	members map[string]*member // keyed by worker name (stable identity)
	nextID  uint64

	scaleMu  sync.Mutex
	launched []func() // stop functions of launcher-spawned workers

	slicesDispatched atomic.Int64
	sliceFailures    atomic.Int64
	reslices         atomic.Int64
	revocations      atomic.Int64
	reprovisions     atomic.Int64
	pathsDone        atomic.Int64
	jobsRun          atomic.Int64
	localFallbacks   atomic.Int64
	kbSamplesMerged  atomic.Int64
}

var _ core.BlockRunner = (*Coordinator)(nil)

// NewCoordinator builds a coordinator.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	hb := cfg.HeartbeatEvery
	if hb <= 0 {
		hb = DefaultHeartbeat
	}
	dead := cfg.DeadAfter
	if dead <= 0 {
		dead = 3 * hb
	}
	return &Coordinator{
		heartbeat: hb,
		deadAfter: dead,
		kb:        cfg.KB,
		launcher:  cfg.Launcher,
		localW:    cfg.LocalWorkers,
		client:    &http.Client{}, // no global timeout: paced slices are long-lived
		members:   make(map[string]*member),
	}
}

// Routes mounts the coordinator's cluster API onto the mux: worker
// registration, heartbeats and knowledge-base export.
func (c *Coordinator) Routes(mux *http.ServeMux) {
	mux.HandleFunc("/v1/join", c.handleJoin)
	mux.HandleFunc("/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/v1/kb", c.handleKB)
}

func (c *Coordinator) handleJoin(rw http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !decodeInto(rw, r, &req) {
		return
	}
	if err := req.validate(); err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	c.mu.Lock()
	m, ok := c.members[req.Name]
	if !ok {
		c.nextID++
		m = &member{id: fmt.Sprintf("w-%04d", c.nextID), name: req.Name}
		c.members[req.Name] = m
	}
	// A rejoin (worker restart, address change) refreshes the registration
	// under the same identity, so its scenario-shard ownership is stable.
	m.addr = req.Addr
	m.slots = req.Slots
	m.lastBeat = time.Now()
	m.dead = false
	// A re-join under a revoked name is a replacement instance claiming the
	// identity (and with it the scenario-shard ownership), not the reclaimed
	// VM coming back — so revocation is cleared here and only here.
	m.revoked = false
	id := m.id
	c.mu.Unlock()
	writeJSON(rw, http.StatusOK, joinResponse{ID: id, HeartbeatSeconds: c.heartbeat.Seconds()})
}

func (c *Coordinator) handleHeartbeat(rw http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeInto(rw, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		if m.id == req.ID {
			m.lastBeat = time.Now()
			// A heartbeat revives a member marked dead by a failed dispatch —
			// but never a revoked one: beats from a reclaimed spot instance
			// are stale by definition. 410 tells the worker its lease is gone.
			if m.revoked {
				writeError(rw, http.StatusGone, errors.New("cluster: instance revoked (re-join as a replacement)"))
				return
			}
			m.dead = false
			writeJSON(rw, http.StatusOK, map[string]string{"status": "ok"})
			return
		}
	}
	// Unknown ID: the coordinator restarted and lost the registration. 404
	// tells the worker to re-join.
	writeError(rw, http.StatusNotFound, errors.New("cluster: unknown worker id (re-join)"))
}

// live returns the members currently considered alive.
func (c *Coordinator) live() []*member {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	var out []*member
	for _, m := range c.members {
		if !m.dead && !m.revoked && now.Sub(m.lastBeat) <= c.deadAfter {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// markDead flags a member after a failed dispatch; heartbeats revive it.
func (c *Coordinator) markDead(m *member) {
	c.mu.Lock()
	m.dead = true
	c.mu.Unlock()
}

// Revoke simulates the cloud reclaiming a worker's spot instance: the member
// is excluded from scheduling immediately, results of its in-flight slices
// are discarded on arrival and re-sliced onto the survivors, and heartbeats
// no longer revive it — only a fresh Join (a replacement instance claiming
// the same identity) does. Returns false when no live member has that name.
func (c *Coordinator) Revoke(name string) bool {
	c.mu.Lock()
	m, ok := c.members[name]
	if !ok || m.revoked {
		c.mu.Unlock()
		return false
	}
	m.revoked = true
	c.mu.Unlock()
	c.revocations.Add(1)
	return true
}

// isRevoked reports whether a member's instance has been reclaimed.
func (c *Coordinator) isRevoked(m *member) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return m.revoked
}

// maybeReprovision asks the launcher for one replacement worker after a
// revocation — but only when the request's deadline leaves enough slack for
// the replacement to boot, join and heartbeat before it could take a slice.
// Without a launcher (or with the deadline too close) the survivors simply
// absorb the re-sliced range.
func (c *Coordinator) maybeReprovision(ctx context.Context) {
	if c.launcher == nil {
		return
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < 4*c.heartbeat {
		return
	}
	c.scaleMu.Lock()
	target := len(c.launched) + 1
	c.scaleMu.Unlock()
	c.reprovisions.Add(1)
	go c.ScaleTo(target)
}

// sliceRange is a contiguous outer-path range awaiting execution.
type sliceRange struct{ from, to int }

// sliceResult is one dispatch outcome: the slice's Y1 values per block.
type sliceResult struct {
	m   *member
	s   sliceRange
	y1  [][]float64
	err error
}

// RunBlocks implements core.BlockRunner: the master loop of the grid package
// (grid.RunWith — group the type-B blocks into the walks they can share, one
// valuer per group, progress per block, assemble) over this coordinator's
// scatter, runGroup, which cuts each group's outer range into job slices for
// the live workers, every slice carrying all the group's blocks, with the
// request's wall-clock occupancy spread over the slices proportionally to
// their path share. When no workers are registered — or a block carries a
// live scenario source that cannot ship — the whole request runs on the
// in-process grid instead, with semantics identical to an unclustered
// deployer.
func (c *Coordinator) RunBlocks(ctx context.Context, req core.BlockRunRequest) (map[string]*alm.Result, error) {
	shippable, totalPaths := true, 0
	for _, b := range eeb.TypeB(req.Blocks) {
		totalPaths += b.Outer
		if b.Scenarios != nil && b.ScenarioRef == nil {
			shippable = false
		}
	}
	if !shippable || len(c.live()) == 0 {
		return c.runLocal(ctx, req)
	}
	c.jobsRun.Add(1)
	return grid.RunWith(ctx, req.Blocks, req.Seed, req.OnProgress,
		func(ctx context.Context, job *alm.JobValuer, onPath func()) ([][]float64, error) {
			return c.runGroup(ctx, job, req, totalPaths, onPath)
		})
}

// runLocal is the degraded path: the in-process grid plus the full local
// pace sleep, exactly what an unclustered RunSimulation does.
func (c *Coordinator) runLocal(ctx context.Context, req core.BlockRunRequest) (map[string]*alm.Result, error) {
	c.localFallbacks.Add(1)
	if req.PaceSeconds > 0 {
		timer := time.NewTimer(time.Duration(req.PaceSeconds * float64(time.Second)))
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
	}
	workers := req.Workers
	if workers <= 0 {
		workers = c.localW
	}
	if workers <= 0 {
		workers = 1
	}
	master := &grid.Master{Workers: workers, Seed: req.Seed, OnProgress: req.OnProgress}
	return master.Run(ctx, req.Blocks)
}

// runGroup is the coordinator's grid.Scatter: it scatters the outer range of
// one walk group over the live workers and gathers the Y1 values, one slice
// per block, on the coordinator's own valuer of the group (job), which also
// walks whatever ranges no worker is left to take. Worker loss mid-run
// re-slices the lost range onto the survivors; if the whole cluster is lost
// the remaining ranges run locally — either way the gathered values are
// bit-identical, because every path is a deterministic function of (seed,
// index). A slice reports its paths only on success, so progress is
// idempotent across worker loss and re-slicing.
func (c *Coordinator) runGroup(ctx context.Context, job *alm.JobValuer, req core.BlockRunRequest, totalPaths int, progress func()) ([][]float64, error) {
	group, outer := job.Blocks(), job.Outer()
	onPath := func() {
		c.pathsDone.Add(int64(len(group)))
		if progress != nil {
			progress()
		}
	}
	wire := make([]blockWire, len(group))
	for bi, b := range group {
		var err error
		if wire[bi], err = encodeBlock(b); err != nil {
			return nil, err
		}
	}
	y1 := make([][]float64, len(group))
	for bi := range y1 {
		y1[bi] = make([]float64, outer)
	}
	store := func(s sliceRange, part [][]float64) {
		for bi := range y1 {
			copy(y1[bi][s.from:s.to], part[bi])
		}
	}
	// paceFor is a slice's share of the request's occupancy: its paths,
	// counted once per block, over the request's.
	paceFor := func(s sliceRange) float64 {
		if req.PaceSeconds <= 0 || totalPaths <= 0 {
			return 0
		}
		return req.PaceSeconds * float64((s.to-s.from)*len(group)) / float64(totalPaths)
	}

	live := c.live()
	peers := make([]peerWire, len(live))
	totalSlots := 0
	for i, m := range live {
		peers[i] = peerWire{Name: m.name, Addr: m.addr}
		totalSlots += m.slots
	}
	pending := splitRange(sliceRange{0, outer}, totalSlots)

	completed := 0
	inflight := make(map[*member]int)
	outstanding := 0
	resCh := make(chan sliceResult)

	dispatch := func(m *member, s sliceRange) {
		c.slicesDispatched.Add(1)
		inflight[m]++
		outstanding++
		go func() {
			var resp executeResponse
			err := postJSON(ctx, c.client, "http://"+m.addr+"/v1/execute", executeRequest{
				Blocks:        wire,
				From:          s.from,
				To:            s.to,
				Seed:          req.Seed,
				PaceSeconds:   paceFor(s),
				ScenarioPeers: peers,
			}, &resp)
			if err == nil {
				err = grid.CheckPart(resp.Y1, len(group), s.from, s.to)
			}
			resCh <- sliceResult{m: m, s: s, y1: resp.Y1, err: err}
		}()
	}
	// drain collects outstanding goroutine results after a terminal error so
	// none blocks forever on the unbuffered channel.
	drain := func() {
		for outstanding > 0 {
			<-resCh
			outstanding--
		}
	}

	for completed < outer {
		// Fill every free slot of every live worker.
		for len(pending) > 0 {
			var target *member
			for _, m := range c.live() {
				if inflight[m] < m.slots {
					target = m
					break
				}
			}
			if target == nil {
				break
			}
			s := pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			dispatch(target, s)
		}
		if outstanding == 0 {
			if len(pending) == 0 {
				return nil, fmt.Errorf("cluster: walk of %s stalled at %d of %d paths", group[0].ID, completed, outer)
			}
			// Every worker is gone: finish the remaining ranges locally.
			for _, s := range pending {
				part, err := c.runRangeLocal(ctx, job, s, paceFor(s), onPath)
				if err != nil {
					return nil, err
				}
				store(s, part)
				completed += s.to - s.from
			}
			pending = nil
			continue
		}
		select {
		case r := <-resCh:
			outstanding--
			inflight[r.m]--
			if revoked := c.isRevoked(r.m); r.err != nil || revoked {
				if ctx.Err() != nil {
					drain()
					return nil, ctx.Err()
				}
				if revoked {
					// The instance was reclaimed while the slice was in
					// flight: whatever it returned is void, exactly as if the
					// VM had vanished. Re-running the range elsewhere is
					// bit-identical because every path is a deterministic
					// function of (seed, index).
					c.maybeReprovision(ctx)
				} else {
					c.sliceFailures.Add(1)
					c.markDead(r.m)
				}
				// Re-slice the lost range across the survivors so it does not
				// become one straggler slice on a single node.
				survivors := len(c.live())
				if survivors < 1 {
					survivors = 1
				}
				parts := splitRange(r.s, survivors)
				c.reslices.Add(int64(len(parts)))
				pending = append(pending, parts...)
				continue
			}
			store(r.s, r.y1)
			completed += r.s.to - r.s.from
			for i := r.s.from; i < r.s.to; i++ {
				onPath()
			}
		case <-ctx.Done():
			drain()
			return nil, ctx.Err()
		}
	}
	return y1, nil
}

// runRangeLocal walks one outer range on the coordinator's own valuer — the
// zero-survivors fallback. The blocks still hold their live scenario source
// (RunBlocks receives the originals), so the values match the remote ones
// bit for bit. The range's pace share is held first, like a remote slice.
func (c *Coordinator) runRangeLocal(ctx context.Context, job *alm.JobValuer, s sliceRange, paceSeconds float64, onPath func()) ([][]float64, error) {
	if paceSeconds > 0 {
		timer := time.NewTimer(time.Duration(paceSeconds * float64(time.Second)))
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
	}
	c.localFallbacks.Add(1)
	return job.ValueRange(ctx, s.from, s.to, onPath)
}

// splitRange cuts a range into n near-equal contiguous pieces (fewer when
// the range is shorter than n): the grid.SplitRange chunks, shifted.
func splitRange(s sliceRange, n int) []sliceRange {
	total := s.to - s.from
	n = min(max(n, 1), total)
	out := make([]sliceRange, n)
	for i := range out {
		from, to := grid.SplitRange(total, n, i)
		out[i] = sliceRange{s.from + from, s.from + to}
	}
	return out
}

// ScaleTo adjusts the launcher-managed worker processes so the cluster
// tracks the target: processes are launched while the managed count is
// below target and stopped (newest first) while above. Workers that joined
// on their own are never touched. Without a Launcher this is a no-op.
func (c *Coordinator) ScaleTo(target int) {
	if c.launcher == nil {
		return
	}
	if target < 0 {
		target = 0
	}
	c.scaleMu.Lock()
	defer c.scaleMu.Unlock()
	for len(c.launched) < target {
		stop, err := c.launcher.StartWorker()
		if err != nil {
			return
		}
		c.launched = append(c.launched, stop)
	}
	for len(c.launched) > target {
		stop := c.launched[len(c.launched)-1]
		c.launched = c.launched[:len(c.launched)-1]
		stop()
	}
}

// ProcessScaler adapts ScaleTo to the core.WithProcessScaler hook. The hook
// must return promptly (it runs on the service control loop), so the scaling
// itself happens on a goroutine.
func (c *Coordinator) ProcessScaler() func(int) {
	return func(target int) { go c.ScaleTo(target) }
}

// StopWorkers stops every launcher-managed worker process.
func (c *Coordinator) StopWorkers() { c.ScaleTo(0) }

// WorkerStatus is one membership row of the cluster status.
type WorkerStatus struct {
	Name    string  `json:"name"`
	Addr    string  `json:"addr"`
	Slots   int     `json:"slots"`
	Alive   bool    `json:"alive"`
	Revoked bool    `json:"revoked"`
	AgeMS   float64 `json:"lastHeartbeatAgeMs"`
}

// Status is the cluster's point-in-time view, every derived figure guarded
// against the empty-telemetry cases (no workers, no slices, no jobs).
type Status struct {
	Workers          []WorkerStatus `json:"workers"`
	LiveWorkers      int            `json:"liveWorkers"`
	TotalSlots       int            `json:"totalSlots"`
	JobsRun          int64          `json:"jobsRun"`
	SlicesDispatched int64          `json:"slicesDispatched"`
	SliceFailures    int64          `json:"sliceFailures"`
	Reslices         int64          `json:"reslices"`
	Revocations      int64          `json:"revocations"`
	Reprovisions     int64          `json:"reprovisions"`
	PathsDone        int64          `json:"pathsDone"`
	LocalFallbacks   int64          `json:"localFallbacks"`
	KBSamplesMerged  int64          `json:"kbSamplesMerged"`
	// AvgPathsPerSlice and SliceFailureRate are 0 — not NaN — before any
	// slice has been dispatched.
	AvgPathsPerSlice float64 `json:"avgPathsPerSlice"`
	SliceFailureRate float64 `json:"sliceFailureRate"`
	ManagedProcesses int     `json:"managedProcesses"`
}

// Status snapshots the cluster.
func (c *Coordinator) Status() Status {
	now := time.Now()
	st := Status{
		JobsRun:          c.jobsRun.Load(),
		SlicesDispatched: c.slicesDispatched.Load(),
		SliceFailures:    c.sliceFailures.Load(),
		Reslices:         c.reslices.Load(),
		Revocations:      c.revocations.Load(),
		Reprovisions:     c.reprovisions.Load(),
		PathsDone:        c.pathsDone.Load(),
		LocalFallbacks:   c.localFallbacks.Load(),
		KBSamplesMerged:  c.kbSamplesMerged.Load(),
	}
	c.mu.Lock()
	names := make([]string, 0, len(c.members))
	for name := range c.members {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := c.members[name]
		alive := !m.dead && !m.revoked && now.Sub(m.lastBeat) <= c.deadAfter
		st.Workers = append(st.Workers, WorkerStatus{
			Name:    m.name,
			Addr:    m.addr,
			Slots:   m.slots,
			Alive:   alive,
			Revoked: m.revoked,
			AgeMS:   float64(now.Sub(m.lastBeat).Milliseconds()),
		})
		if alive {
			st.LiveWorkers++
			st.TotalSlots += m.slots
		}
	}
	c.mu.Unlock()
	if st.SlicesDispatched > 0 {
		st.AvgPathsPerSlice = float64(st.PathsDone) / float64(st.SlicesDispatched)
		st.SliceFailureRate = float64(st.SliceFailures) / float64(st.SlicesDispatched)
	}
	c.scaleMu.Lock()
	st.ManagedProcesses = len(c.launched)
	c.scaleMu.Unlock()
	return st
}
