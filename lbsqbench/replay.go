package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"lbsq/internal/broadcast"
	"lbsq/internal/cache"
	"lbsq/internal/core"
	"lbsq/internal/faults"
	"lbsq/internal/geom"
	"lbsq/internal/mobility"
	"lbsq/internal/p2p"
	"lbsq/internal/rtree"
	"lbsq/internal/sim"
	"lbsq/internal/trust"
	"lbsq/internal/wire"
)

// The replay re-runs a workload through each layer's public functions in
// the order sim.World calls them, with a span around every call. It
// seeds its streams exactly as the World does (these salts mirror the
// simulator's private per-layer stream salts), so on a faithful replay
// its query outcomes match the World run; runPerLayer compares the two
// within a tolerance.
const (
	faultSeedSalt  = 0x6661756c74 // "fault"
	trustSeedSalt  = 0x74727573   // "trus"
	updateSeedSalt = 0x75706474   // "updt"
)

// span names one timed call site of the replay.
type span int

const (
	spMobility     span = iota // mobility.Waypoint.Step over every host, once per tick
	spUpdate                   // p2p.Network.Update over every host, once per tick
	spNeighbors                // p2p.Network.AppendNeighbors
	spGather                   // cache.Cache.Regions scan into core.PeerData
	spReconcile                // cache.Cache.Reconcile and cache.ReconcileRegion
	spCodec                    // wire.EncodeReply + wire.DecodeReply of a damaged reply
	spScreen                   // trust.Engine.Screen; its oracle calls are spOracle
	spOracle                   // rtree.Tree.Window called by the trust oracle
	spMerge                    // geom.RectUnion Reset/Add of the untainted VRs
	spClearance                // first geom.RectUnion.Clearance on the fresh MVR
	spWindowGeom               // geom.RectUnion.CoversRect + geom.SubtractRect
	spCore                     // core.SBNNScratchMVR / SBWQScratchMVR, prebuilt MVR
	spOnAir                    // the core call's broadcast work, re-timed on the same inputs
	spSearchRadius             // broadcast.Schedule.SearchRadius
	spInsert                   // cache.Cache.Insert
	spListenIR                 // broadcast.Schedule.ListenIR
	spEpochTree                // rtree.Bulk at a new POI epoch
	spEpochSched               // broadcast.NewSchedule at a new POI epoch
	spIRCodec                  // wire IR frame encode + decode at a new epoch
	spTruthKNN                 // rtree.Tree.KNN (prefill and the ground-truth check)
	spTruthWindow              // rtree.Tree.Window (prefill and the ground-truth check)
	spSetupSched               // broadcast.NewSchedule at set-up
	spSetupTree                // rtree.Bulk at set-up
	spSetupPrefill             // the whole cache prefill
	nSpans
)

// tracer keeps each span's total duration and call count in memory.
// With on false it reads no clock.
type tracer struct {
	on    bool
	ns    [nSpans]int64
	calls [nSpans]int64
}

func (t *tracer) begin() time.Time {
	if !t.on {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) end(s span, t0 time.Time) {
	if !t.on {
		return
	}
	t.ns[s] += int64(time.Since(t0))
	t.calls[s]++
}

// tally counts the work the replay saw at each layer boundary.
type tally struct {
	queries, verified, approximate, broadcast int64 // every query
	counted                                   sim.Stats
	countedPeers                              int64

	mvrRects, boundarySegs, examined int64
	packetsRead, packetsSkipped      int64
	peers                            int64
	regionsScanned, regionsRelevant  int64
	reconciled                       int64
	audits, screened, tainted        int64
	encoded, rejected                int64
	exactChecked                     int64
}

type replayHost struct {
	mob     mobility.State
	cache   *cache.Cache
	irEpoch int64
}

// replayCons mirrors the World's POI-update process and IR frame.
type replayCons struct {
	rng       *rand.Rand
	nextIRSec float64
	epoch     int64
	nextID    int64
	records   [][]wire.IRItem
	horizon   int64
	invals    []cache.Invalidation
}

type replay struct {
	p     sim.Params // defaults applied
	tr    *tracer
	t     tally
	rng   *rand.Rand
	area  geom.Rect
	bcfg  broadcast.Config
	db    []broadcast.POI
	truth *rtree.Tree
	sched *broadcast.Schedule
	// lambda stays the initial POI density, as in the World.
	lambda float64
	net    *p2p.Network
	model  *mobility.Waypoint
	hosts  []replayHost

	inj      *faults.Injector
	breakers *p2p.BreakerSet
	trust    *trust.Engine
	cons     *replayCons

	nowSec, durationSec, warmupSec float64
	queryID                        uint64

	scratch  core.Scratch
	mvr      geom.RectUnion
	ids      []int
	peers    []core.PeerData
	owners   []int
	shared   []cache.Region
	contribs []trust.Contribution
	regs     []wire.Region
	checkErr error
}

// newReplay builds the replay's world the way sim.NewWorld does. p must
// carry the World's defaults (take it from World.Params).
func newReplay(p sim.Params, tr *tracer) (*replay, error) {
	if p.POITypes > 1 || p.POIClusters > 0 || p.SharingHops > 1 || p.UseOwnCache ||
		p.Faults.ByzantineRate > 0 || p.Faults.StaleRate > 0 || p.Faults.ChurnRate > 0 ||
		p.Faults.BroadcastLoss > 0 || p.VRTTLSec > 0 || p.ContinuousEnabled() ||
		p.CrowdEnabled() || p.OverloadEnabled() || p.DegradedMode {
		return nil, fmt.Errorf("replay: workload arms a knob the replay does not model")
	}
	r := &replay{
		p:           p,
		tr:          tr,
		rng:         rand.New(rand.NewSource(p.Seed)),
		area:        p.Area(),
		lambda:      p.POIDensity(),
		durationSec: p.DurationHours * 3600,
	}
	r.warmupSec = r.durationSec * p.WarmupFrac
	r.db = make([]broadcast.POI, p.POINumber)
	for i := range r.db {
		r.db[i] = broadcast.POI{ID: int64(i),
			Pos: geom.Pt(r.rng.Float64()*p.AreaMiles, r.rng.Float64()*p.AreaMiles)}
	}
	r.bcfg = p.Broadcast
	r.bcfg.Area = r.area
	var err error
	t0 := tr.begin()
	r.sched, err = broadcast.NewSchedule(r.db, r.bcfg)
	tr.end(spSetupSched, t0)
	if err != nil {
		return nil, err
	}
	t0 = tr.begin()
	r.truth = rtree.Bulk(poiItems(r.db), 16)
	tr.end(spSetupTree, t0)

	if r.net, err = p2p.NewNetwork(r.area, p.TxRangeMiles()); err != nil {
		return nil, err
	}
	if r.model, err = mobility.NewWaypoint(r.area, p.MinSpeedMph/3600, p.MaxSpeedMph/3600, p.PauseSec); err != nil {
		return nil, err
	}
	if p.Faults.Enabled() {
		r.inj = faults.New(p.Seed^faultSeedSalt, p.Faults)
	}
	r.breakers = p2p.NewBreakerSet(p.BreakerConfig())
	r.trust = trust.NewEngine(p.Seed^trustSeedSalt, p.TrustConfig(), r.breakers)
	if p.ConsistencyEnabled() {
		r.cons = &replayCons{
			rng:       rand.New(rand.NewSource(p.Seed ^ updateSeedSalt)),
			nextIRSec: p.IRPeriodSec,
			nextID:    int64(len(r.db)),
		}
	}

	r.hosts = make([]replayHost, p.MHNumber)
	for i := range r.hosts {
		r.hosts[i] = replayHost{mob: r.model.Init(r.rng), cache: cache.New(p.CacheSize, p.CachePolicy)}
		r.net.Update(i, r.hosts[i].mob.Pos)
	}
	if p.PrefillQueriesPerHost > 0 {
		t0 := tr.begin()
		r.prefill()
		tr.end(spSetupPrefill, t0)
	}
	return r, nil
}

func poiItems(db []broadcast.POI) []rtree.Item {
	items := make([]rtree.Item, len(db))
	for i, poi := range db {
		items[i] = rtree.Item{ID: poi.ID, Pos: poi.Pos}
	}
	return items
}

// prefill seeds every cache with synthetic historical query results built
// from the ground truth (the World's warm start).
func (r *replay) prefill() {
	radius := r.p.PrefillRadiusMiles
	if radius <= 0 {
		radius = math.Min(7.5, r.p.AreaMiles/2)
	}
	for i := range r.hosts {
		h := &r.hosts[i]
		r.rng.Intn(1) // the World draws a data type per host; there is one
		n := mobility.Poisson(r.rng, r.p.PrefillQueriesPerHost)
		for j := 0; j < n; j++ {
			angle := r.rng.Float64() * 2 * math.Pi
			d := r.rng.Float64() * radius
			center := r.area.Clip(h.mob.Pos.Add(geom.Pt(math.Cos(angle)*d, math.Sin(angle)*d)))
			var region geom.Rect
			if r.p.Kind == sim.WindowQuery {
				area := float64(r.p.CacheSize) / math.Max(r.lambda, 1e-9)
				area *= 0.4 + 0.6*r.rng.Float64()
				win, ok := geom.RectAround(center, math.Sqrt(area)/2).Intersect(r.area)
				if !ok {
					continue
				}
				region = win
			} else {
				k := r.drawK()
				t0 := r.tr.begin()
				nn := r.truth.KNN(center, k)
				r.tr.end(spTruthKNN, t0)
				if len(nn) == 0 {
					continue
				}
				region = geom.RectAround(center, math.Max(nn[len(nn)-1].Pos.Dist(center), 1e-9))
			}
			h.cache.Insert(cache.Region{Rect: region, POIs: r.truthWindow(spTruthWindow, region)},
				h.mob.Pos, h.mob.Heading(), 0)
		}
	}
}

// truthWindow is the ground-truth POI set inside rect, timed as s.
func (r *replay) truthWindow(s span, rect geom.Rect) []broadcast.POI {
	t0 := r.tr.begin()
	items := r.truth.Window(rect)
	r.tr.end(s, t0)
	out := make([]broadcast.POI, len(items))
	for i, it := range items {
		out[i] = broadcast.POI{ID: it.ID, Pos: it.Pos}
	}
	return out
}

func (r *replay) drawK() int {
	k := mobility.Poisson(r.rng, float64(r.p.K))
	if k < 1 {
		k = 1
	}
	return k
}

func (r *replay) counted() bool  { return r.nowSec >= r.warmupSec }
func (r *replay) slotNow() int64 { return int64(r.nowSec / r.p.SlotSec) }

// run replays the configured duration.
func (r *replay) run() {
	for r.nowSec < r.durationSec {
		r.step(r.p.TimeStepSec)
	}
}

// step is one tick: move every host, index the new positions, advance
// the POI epoch, then launch a Poisson number of queries.
func (r *replay) step(dt float64) {
	t0 := r.tr.begin()
	for i := range r.hosts {
		r.model.Step(&r.hosts[i].mob, dt, r.rng)
	}
	r.tr.end(spMobility, t0)
	t0 = r.tr.begin()
	for i := range r.hosts {
		r.net.Update(i, r.hosts[i].mob.Pos)
	}
	r.tr.end(spUpdate, t0)
	r.nowSec += dt
	if r.cons != nil {
		for r.nowSec >= r.cons.nextIRSec {
			r.applyUpdates()
			r.cons.nextIRSec += r.p.IRPeriodSec
		}
	}
	n := mobility.Poisson(r.rng, r.p.QueryRate/60*dt)
	for q := 0; q < n; q++ {
		idx := r.rng.Intn(len(r.hosts))
		r.rng.Intn(1) // data type
		if r.p.Kind == sim.WindowQuery {
			r.windowQuery(idx)
		} else {
			r.knnQuery(idx)
		}
	}
}

// applyUpdates is one IR period of the POI-update process: mutate the
// database, rebuild its index and channel, and publish the IR frame.
func (r *replay) applyUpdates() {
	c := r.cons
	n := mobility.Poisson(c.rng, r.p.UpdateRate/60*r.p.IRPeriodSec)
	if n > wire.MaxIRItems/4 {
		n = wire.MaxIRItems / 4
	}
	if n == 0 {
		return
	}
	c.epoch++
	curve := r.sched.Curve()
	items := make([]wire.IRItem, 0, n)
	for i := 0; i < n; i++ {
		op := c.rng.Intn(3)
		if len(r.db) <= 1 && op != 0 {
			op = 0
		}
		switch op {
		case 1:
			j := c.rng.Intn(len(r.db))
			id := r.db[j].ID
			r.db = append(r.db[:j], r.db[j+1:]...)
			items = append(items, wire.IRItem{Epoch: c.epoch, Kind: wire.IRDelete, ID: id})
		case 2:
			j := c.rng.Intn(len(r.db))
			pos := geom.Pt(c.rng.Float64()*r.p.AreaMiles, c.rng.Float64()*r.p.AreaMiles)
			r.db[j].Pos = pos
			cx, cy := curve.CellOf(pos)
			items = append(items, wire.IRItem{Epoch: c.epoch, Kind: wire.IRMove, ID: r.db[j].ID, Cell: curve.CellRect(cx, cy)})
		default:
			pos := geom.Pt(c.rng.Float64()*r.p.AreaMiles, c.rng.Float64()*r.p.AreaMiles)
			id := c.nextID
			c.nextID++
			r.db = append(r.db, broadcast.POI{ID: id, Pos: pos})
			cx, cy := curve.CellOf(pos)
			items = append(items, wire.IRItem{Epoch: c.epoch, Kind: wire.IRInsert, ID: id, Cell: curve.CellRect(cx, cy)})
		}
	}
	c.records = append(c.records, items)
	for len(c.records) > r.p.IRWindow && len(c.records) > 1 {
		c.records = c.records[1:]
	}
	total := 0
	for _, rec := range c.records {
		total += len(rec)
	}
	for total > wire.MaxIRItems && len(c.records) > 1 {
		total -= len(c.records[0])
		c.records = c.records[1:]
	}

	t0 := r.tr.begin()
	r.truth = rtree.Bulk(poiItems(r.db), 16)
	r.tr.end(spEpochTree, t0)
	t0 = r.tr.begin()
	sched, err := broadcast.NewSchedule(r.db, r.bcfg)
	r.tr.end(spEpochSched, t0)
	if err != nil {
		r.fail(fmt.Errorf("schedule rebuild at epoch %d: %w", c.epoch, err))
		return
	}
	r.sched = sched

	flat := make([]wire.IRItem, 0, total)
	for _, rec := range c.records {
		flat = append(flat, rec...)
	}
	t0 = r.tr.begin()
	ir := wire.InvalidationReport{Epoch: c.epoch, Horizon: c.records[0][0].Epoch, Items: flat}
	enc, err := wire.EncodeInvalidationReport(ir)
	if err == nil {
		ir, err = wire.DecodeInvalidationReport(enc)
	}
	r.tr.end(spIRCodec, t0)
	if err != nil {
		r.fail(fmt.Errorf("IR frame at epoch %d: %w", c.epoch, err))
		return
	}
	c.horizon = ir.Horizon
	c.invals = c.invals[:0]
	for _, it := range ir.Items {
		c.invals = append(c.invals, cache.Invalidation{Epoch: it.Epoch, Kind: cache.InvalKind(it.Kind), ID: it.ID, Cell: it.Cell})
	}
}

func (r *replay) fail(err error) {
	if r.checkErr == nil {
		r.checkErr = err
	}
}

// syncIR brings the querying host up to the current epoch: listen for
// the IR frame and reconcile its own cache. Returns the listen slots.
func (r *replay) syncIR(idx int) int64 {
	c := r.cons
	h := &r.hosts[idx]
	if c == nil || h.irEpoch >= c.epoch {
		return 0
	}
	t0 := r.tr.begin()
	acc := r.sched.ListenIR(r.slotNow(), nil)
	r.tr.end(spListenIR, t0)
	if acc.Abandoned {
		return acc.Latency
	}
	t0 = r.tr.begin()
	rec := h.cache.Reconcile(c.epoch, c.horizon, c.invals, r.p.IRDiscard)
	r.tr.end(spReconcile, t0)
	r.t.reconciled += int64(rec.Repaired)
	h.irEpoch = c.epoch
	return acc.Latency
}

// collect gathers the peers' relevant verified regions: the blind single
// round without faults, or the resilient lifecycle (breakers, retries
// under backoff, a slot deadline) when they are armed. Returns the
// number of neighbors and the slots spent in backoff.
func (r *replay) collect(idx int, relevance geom.Rect) (int, int64) {
	q := r.hosts[idx].mob.Pos
	t0 := r.tr.begin()
	r.ids = r.net.AppendNeighbors(r.ids[:0], q, r.p.TxRangeMiles(), idx)
	r.tr.end(spNeighbors, t0)
	r.t.peers += int64(len(r.ids))
	r.peers, r.owners = r.peers[:0], r.owners[:0]
	stamp := int64(r.nowSec)
	if !r.p.ResilienceEnabled() {
		for _, id := range r.ids {
			r.reply(id, relevance, stamp)
		}
		return len(r.ids), 0
	}

	r.breakers.Tick()
	type target struct {
		id       int
		resolved bool
	}
	var targets []target
	for _, id := range r.ids {
		if r.breakers.Allow(id) {
			targets = append(targets, target{id: id})
		}
	}
	maxAttempts := 1 + r.inj.Profile().MaxRetries
	deadline := int64(r.p.DeadlineSlots)
	var spent int64
	remaining := len(targets)
	var heard []int
	for attempt := 1; remaining > 0 && attempt <= maxAttempts; attempt++ {
		if attempt > 1 {
			base := faults.BackoffSlots(attempt)
			delay := base + r.inj.Jitter(base)
			if deadline > 0 && spent+delay > deadline {
				break
			}
			spent += delay
		}
		heard = heard[:0]
		for i := range targets {
			if !targets[i].resolved && r.inj.RequestHeard() {
				heard = append(heard, i)
			}
		}
		for _, i := range heard {
			t := &targets[i]
			switch r.reply(t.id, relevance, stamp) {
			case replyDelivered:
				t.resolved = true
				remaining--
				r.breakers.RecordSuccess(t.id)
			case replySilent:
				t.resolved = true
				remaining--
			case replyRejected:
				r.breakers.RecordFailure(t.id)
			}
		}
	}
	for _, t := range targets {
		if !t.resolved {
			r.breakers.RecordFailure(t.id)
		}
	}
	return len(r.ids), spent
}

type replyKind int

const (
	replySilent replyKind = iota
	replyDelivered
	replyDropped
	replyRejected
)

// reply is one peer answering the cache request: scan its cache for
// relevant regions, then deliver, lose, or damage the reply in flight.
func (r *replay) reply(id int, relevance geom.Rect, stamp int64) replyKind {
	c := r.hosts[id].cache
	t0 := r.tr.begin()
	r.shared = r.shared[:0]
	for ri, reg := range c.Regions() {
		r.t.regionsScanned++
		if !reg.Rect.Intersects(relevance) {
			continue
		}
		r.t.regionsRelevant++
		c.Touch(ri, stamp)
		r.shared = append(r.shared, reg)
	}
	r.tr.end(spGather, t0)
	if len(r.shared) == 0 {
		return replySilent
	}
	fate := faults.FateDeliver
	if r.inj != nil {
		fate = r.inj.ReplyFate()
	}
	switch fate {
	case faults.FateDeliver:
		r.admit(id)
		return replyDelivered
	case faults.FateDrop:
		return replyDropped
	}
	// Damaged in flight: run the real codec; its CRC should reject the
	// frame.
	t0 = r.tr.begin()
	r.regs = r.regs[:0]
	for _, reg := range r.shared {
		r.regs = append(r.regs, wire.Region{Rect: reg.Rect, POIs: reg.POIs})
	}
	r.queryID++
	enc, err := wire.EncodeReply(wire.Reply{QueryID: r.queryID, Regions: r.regs})
	r.tr.end(spCodec, t0)
	if err != nil {
		return replySilent // unencodable: nothing the querier can use
	}
	mangled := r.inj.Mangle(enc, fate)
	t0 = r.tr.begin()
	dec, err := wire.DecodeReply(mangled)
	r.tr.end(spCodec, t0)
	r.t.encoded++
	if err != nil {
		r.t.rejected++
		return replyRejected
	}
	// Damage that passes every check is used like a delivered reply.
	r.shared = r.shared[:min(len(r.shared), len(dec.Regions))]
	for i := range r.shared {
		r.shared[i].Rect, r.shared[i].POIs = dec.Regions[i].Rect, dec.Regions[i].POIs
	}
	r.admit(id)
	return replyDelivered
}

// admit appends the staged regions peer id served, as the receiving
// client accepts them: all of them without the consistency layer; with
// it, current regions enter exact, superseded ones within the IR horizon
// are repaired, and older ones are demoted (tainted).
func (r *replay) admit(id int) {
	c := r.cons
	for _, reg := range r.shared {
		switch {
		case c == nil || reg.Epoch >= c.epoch:
			r.peers = append(r.peers, core.PeerData{VR: reg.Rect, POIs: reg.POIs})
			r.owners = append(r.owners, id)
		case r.p.IRDiscard:
		case reg.Epoch >= c.horizon-1:
			t0 := r.tr.begin()
			pieces, touched := cache.ReconcileRegion(reg, c.invals, c.epoch)
			r.tr.end(spReconcile, t0)
			if touched && pieces != nil {
				r.t.reconciled++
			}
			for _, pc := range pieces {
				r.peers = append(r.peers, core.PeerData{VR: pc.Rect, POIs: pc.POIs})
				r.owners = append(r.owners, id)
			}
		default:
			r.peers = append(r.peers, core.PeerData{VR: reg.Rect, POIs: reg.POIs, Tainted: true})
			r.owners = append(r.owners, id)
		}
	}
}

// screen runs the trust pass over the collected regions and returns the
// slots its audits spent. spent is the slots the query has used so far;
// audits must fit in what the deadline leaves.
func (r *replay) screen(spent int64) int64 {
	if r.trust == nil {
		return 0
	}
	r.contribs = r.contribs[:0]
	for i, pd := range r.peers {
		r.contribs = append(r.contribs, trust.Contribution{Peer: r.owners[i], VR: pd.VR, POIs: pd.POIs, Stale: pd.Tainted})
	}
	budget := int64(-1)
	if r.p.DeadlineSlots > 0 {
		budget = int64(r.p.DeadlineSlots) - spent
		if budget < 0 {
			budget = 0
		}
	}
	oracle := func(rect geom.Rect) []broadcast.POI { return r.truthWindow(spOracle, rect) }
	t0 := r.tr.begin()
	screened, rep := r.trust.Screen(r.contribs, oracle, budget)
	r.tr.end(spScreen, t0)
	r.t.audits += int64(rep.Audits)
	r.t.screened += int64(len(screened))
	r.peers = r.peers[:0]
	for _, s := range screened {
		if s.Tainted {
			r.t.tainted++
		}
		r.peers = append(r.peers, core.PeerData{VR: s.VR, POIs: s.POIs, Tainted: s.Tainted})
	}
	return rep.AuditSlots
}

// mergeMVR builds the merged verified region of the untainted peers.
func (r *replay) mergeMVR() {
	t0 := r.tr.begin()
	r.mvr.Reset()
	for _, pd := range r.peers {
		if !pd.Tainted {
			r.mvr.Add(pd.VR)
		}
	}
	r.tr.end(spMerge, t0)
	r.t.mvrRects += int64(r.mvr.Len())
}

func (r *replay) knnQuery(idx int) {
	h := &r.hosts[idx]
	q := h.mob.Pos
	k := r.drawK()
	relevance := geom.RectAround(q, r.knnRelevanceRadius(k))
	irSlots := r.syncIR(idx)
	nPeers, spent := r.collect(idx, relevance)
	spent += irSlots
	spent += r.screen(spent)
	r.mergeMVR()

	t0 := r.tr.begin()
	_, inside := r.mvr.Clearance(q)
	r.tr.end(spClearance, t0)
	if inside {
		r.t.boundarySegs += int64(len(r.mvr.Boundary()))
	}

	cfg := core.SBNNConfig{K: k, Lambda: r.lambda,
		AcceptApproximate: r.p.AcceptApproximate, MinCorrectness: r.p.MinCorrectness}
	now := r.slotNow() + spent
	t0 = r.tr.begin()
	res := core.SBNNScratchMVR(&r.scratch, &r.mvr, true, q, r.peers, cfg, r.sched, now)
	r.tr.end(spCore, t0)
	r.t.examined += int64(res.Examined)
	if res.Outcome == core.OutcomeBroadcast && r.tr.on {
		t0 = r.tr.begin()
		r.sched.KNNWithBounds(q, k, now, res.Bounds)
		r.tr.end(spOnAir, t0)
		if res.Bounds.Upper <= 0 {
			t0 = r.tr.begin()
			r.sched.SearchRadius(q, k)
			r.tr.end(spSearchRadius, t0)
		}
	}
	r.record(res.Outcome, res.Access, nPeers)
	if res.Outcome != core.OutcomeApproximate {
		r.checkKNN(q, k, res.POIs)
	}
	r.insert(h, res.KnownRegion, res.Known, q)
}

func (r *replay) knnRelevanceRadius(k int) float64 {
	rad := 4 * math.Sqrt(float64(k)/(math.Pi*math.Max(r.lambda, 1e-9)))
	if tx := 2 * r.p.TxRangeMiles(); tx > rad {
		rad = tx
	}
	return math.Min(rad, r.p.AreaMiles)
}

func (r *replay) windowQuery(idx int) {
	h := &r.hosts[idx]
	q := h.mob.Pos
	win, ok := r.drawWindow(q)
	if !ok {
		return
	}
	irSlots := r.syncIR(idx)
	nPeers, spent := r.collect(idx, win)
	spent += irSlots
	spent += r.screen(spent)
	r.mergeMVR()

	t0 := r.tr.begin()
	if !r.mvr.CoversRect(win) {
		geom.SubtractRect(win, r.mvr.Rects())
	}
	r.tr.end(spWindowGeom, t0)

	cfg := core.SBWQConfig{MaxKnownArea: 1.5 * float64(r.p.CacheSize) / math.Max(r.lambda, 1e-9)}
	now := r.slotNow() + spent
	t0 = r.tr.begin()
	res := core.SBWQScratchMVR(&r.scratch, &r.mvr, true, q, win, r.peers, cfg, r.sched, now)
	r.tr.end(spCore, t0)
	r.t.examined += int64(res.Examined)
	if res.Outcome == core.OutcomeBroadcast && r.tr.on {
		t0 = r.tr.begin()
		_, _, retrieved, _ := r.sched.WindowReducedDetailed(res.ReducedWindows, now)
		r.sched.GrowCompleteRect(win, retrieved, cfg.MaxKnownArea)
		r.tr.end(spOnAir, t0)
	}
	r.record(res.Outcome, res.Access, nPeers)
	r.checkWindow(win, res.POIs)
	r.insert(h, res.KnownRegion, res.Known, q)
}

func (r *replay) drawWindow(q geom.Point) (geom.Rect, bool) {
	side := r.p.WindowSideMiles() * (0.5 + r.rng.Float64())
	if side <= 0 {
		return geom.Rect{}, false
	}
	dist := math.Abs(r.rng.NormFloat64()*r.p.WindowDistMiles/3 + r.p.WindowDistMiles)
	angle := r.rng.Float64() * 2 * math.Pi
	center := r.area.Clip(q.Add(geom.Pt(math.Cos(angle)*dist, math.Sin(angle)*dist)))
	return geom.RectAround(center, side/2).Intersect(r.area)
}

// record counts one query's outcome, and its counted Stats after the
// warm-up like the World.
func (r *replay) record(o core.Outcome, acc broadcast.Access, nPeers int) {
	r.t.queries++
	switch o {
	case core.OutcomeVerified:
		r.t.verified++
	case core.OutcomeApproximate:
		r.t.approximate++
	default:
		r.t.broadcast++
	}
	r.t.packetsRead += int64(acc.PacketsRead)
	r.t.packetsSkipped += int64(acc.PacketsSkipped)
	if !r.counted() {
		return
	}
	s := &r.t.counted
	s.Queries++
	r.t.countedPeers += int64(nPeers)
	switch o {
	case core.OutcomeVerified:
		s.Verified++
	case core.OutcomeApproximate:
		s.Approximate++
	default:
		s.Broadcast++
	}
}

func (r *replay) insert(h *replayHost, known geom.Rect, pois []broadcast.POI, q geom.Point) {
	if known.Empty() {
		return
	}
	reg := cache.Region{Rect: known, POIs: pois}
	if r.cons != nil {
		reg.Epoch = r.cons.epoch
	}
	t0 := r.tr.begin()
	h.cache.Insert(reg, q, h.mob.Heading(), int64(r.nowSec))
	r.tr.end(spInsert, t0)
}

// checkKNN compares an exact kNN answer with the R-tree's.
func (r *replay) checkKNN(q geom.Point, k int, got []broadcast.POI) {
	r.t.exactChecked++
	t0 := r.tr.begin()
	want := r.truth.KNN(q, k)
	r.tr.end(spTruthKNN, t0)
	if len(got) != len(want) {
		r.fail(fmt.Errorf("replay kNN at t=%v: got %d results want %d", r.nowSec, len(got), len(want)))
		return
	}
	for i := range want {
		if math.Abs(got[i].Pos.Dist(q)-want[i].Pos.Dist(q)) > 1e-9 {
			r.fail(fmt.Errorf("replay kNN at t=%v: rank %d distance %v want %v", r.nowSec, i, got[i].Pos.Dist(q), want[i].Pos.Dist(q)))
			return
		}
	}
}

// checkWindow compares an exact window answer with the R-tree's.
func (r *replay) checkWindow(win geom.Rect, got []broadcast.POI) {
	r.t.exactChecked++
	want := r.truthWindow(spTruthWindow, win)
	if len(got) != len(want) {
		r.fail(fmt.Errorf("replay window at t=%v: got %d results want %d", r.nowSec, len(got), len(want)))
		return
	}
	ids := make(map[int64]bool, len(got))
	for _, p := range got {
		ids[p.ID] = true
	}
	for _, p := range want {
		if !ids[p.ID] {
			r.fail(fmt.Errorf("replay window at t=%v: POI %d missing", r.nowSec, p.ID))
			return
		}
	}
}
