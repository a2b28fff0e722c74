// Package cluster runs TopkRGS mining across a set of rcbtserved
// worker replicas: a Coordinator splits the job into the column-phase
// partitions of hybrid.PlanPartitions, ships each partition to a peer
// as a mine job over the /v1/jobs HTTP surface, and merges the
// returned rule groups into per-row top-k boards that deep-equal the
// single-node result.
//
// Sub-jobs run in rounds of len(Peers) partitions. Between rounds the
// coordinator recomputes the global minimum-confidence floor — the
// weakest threshold confidence across all merged per-row boards, 0
// while any board is still short — and sends it as the next round's
// Spec.Minconf, so remote workers prune subtrees the merged boards
// have already outclassed. The floor is sound: thresholds only rise,
// so a group strictly below the floor can never qualify for any final
// board, and floor-tied groups are kept on both sides (the core's
// MinConf clamp uses support 0). Workers may return extra groups that
// only lead their floored local boards; the merge rejects them,
// because the partition's own stronger groups arrive first in
// significance order and fill the global boards at or above them.
//
// Failure handling: a partition whose peer fails (connection error,
// non-2xx, failed job, per-sub-job deadline) is retried with
// exponential backoff, then mined locally by the coordinator with the
// same floor — degraded throughput, identical output. Merge order is
// deterministic (partition plan order, each partition's groups in
// significance order, dedup by group key), so the merged result is
// byte-for-byte the single-node hybrid result regardless of which
// peers answered.
//
// The Coordinator implements engine.Miner under the name "cluster";
// registering it (cmd/rcbtserved -peers) makes distributed mining
// reachable through the ordinary jobs API with {"miner": "cluster"}.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/hybrid"
	"repro/internal/jobs"
	"repro/internal/rules"
	"repro/internal/serve"
)

// Defaults applied by New when the corresponding Config field is zero.
const (
	DefaultSubJobTimeout = time.Minute
	DefaultRetries       = 1
	DefaultBackoff       = 50 * time.Millisecond
	DefaultPollInterval  = 20 * time.Millisecond
)

// Config configures a Coordinator.
type Config struct {
	// Peers are the worker base URLs ("http://host:port"). Partition i
	// of each round goes to Peers[i mod len(Peers)]. An empty list is a
	// degenerate single-node cluster: every partition is mined locally,
	// which is also the oracle the distributed path must match.
	Peers []string
	// Client issues the sub-job HTTP requests (nil = a default client;
	// deadlines come from per-attempt contexts, not Client.Timeout).
	Client *http.Client
	// SubJobTimeout bounds one attempt at one partition — submit plus
	// poll to completion — and is also sent as the sub-job's own
	// Spec.Timeout so an orphaned job cannot occupy a worker forever
	// (0 = DefaultSubJobTimeout).
	SubJobTimeout time.Duration
	// Retries is the number of re-attempts after a failed first try
	// against a partition's peer before degrading to local mining
	// (0 = DefaultRetries; negative = no retries).
	Retries int
	// Backoff is the first retry delay, doubled per attempt
	// (0 = DefaultBackoff).
	Backoff time.Duration
	// PollInterval spaces the GET /v1/jobs/{id} polls while a sub-job
	// runs (0 = DefaultPollInterval).
	PollInterval time.Duration
	// Logger receives per-partition dispatch, retry and degrade lines
	// (nil = silent).
	Logger *slog.Logger
}

// Coordinator is the cluster-mode miner. Create with New; safe for
// concurrent use.
type Coordinator struct {
	peers         []string
	client        *http.Client
	subJobTimeout time.Duration
	retries       int
	backoff       time.Duration
	pollInterval  time.Duration
	logger        *slog.Logger
}

// New builds a Coordinator, applying Config defaults.
func New(cfg Config) *Coordinator {
	c := &Coordinator{
		peers:         append([]string(nil), cfg.Peers...),
		client:        cfg.Client,
		subJobTimeout: cfg.SubJobTimeout,
		retries:       cfg.Retries,
		backoff:       cfg.Backoff,
		pollInterval:  cfg.PollInterval,
		logger:        cfg.Logger,
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	if c.subJobTimeout == 0 {
		c.subJobTimeout = DefaultSubJobTimeout
	}
	if c.retries == 0 {
		c.retries = DefaultRetries
	} else if c.retries < 0 {
		c.retries = 0
	}
	if c.backoff == 0 {
		c.backoff = DefaultBackoff
	}
	if c.pollInterval == 0 {
		c.pollInterval = DefaultPollInterval
	}
	return c
}

// Name is the engine-registry key.
func (c *Coordinator) Name() string { return "cluster" }

// Mine implements engine.Miner: distributed TopkRGS over the
// configured peers. Options fields beyond Class, K and Minsup are not
// supported in cluster mode — MaxNodes is rejected (a node budget
// cannot be enforced across processes), the rest are ignored.
func (c *Coordinator) Mine(ctx context.Context, d *dataset.Dataset, opts engine.Options) (*engine.Result, engine.Stats, error) {
	if opts.MaxNodes > 0 {
		return nil, engine.Stats{}, fmt.Errorf("cluster: node budgets are not supported in cluster mode")
	}
	if opts.K < 1 {
		return nil, engine.Stats{}, fmt.Errorf("cluster: k must be >= 1, got %d", opts.K)
	}
	if opts.Minsup < 1 {
		return nil, engine.Stats{}, fmt.Errorf("cluster: minsup must be >= 1, got %d", opts.Minsup)
	}
	cls := opts.Class
	if int(cls) < 0 || int(cls) >= d.NumClasses() {
		return nil, engine.Stats{}, fmt.Errorf("cluster: class %d outside [0,%d)", cls, d.NumClasses())
	}
	pos := d.RowSet(cls)
	if pos.Count() == 0 {
		return nil, engine.Stats{}, fmt.Errorf("cluster: no rows of class %s", d.ClassNames[cls])
	}

	res := &engine.Result{PerRow: map[int][]*rules.Group{}}
	lists := map[int]*rules.TopKList{}
	for r := 0; r < d.NumRows(); r++ {
		if d.Labels[r] == cls {
			res.PerRow[r] = nil
			lists[r] = rules.NewTopKList(opts.K)
		}
	}
	for i := 0; i < d.NumItems(); i++ {
		if d.ItemRows(i).IntersectionCount(pos) >= opts.Minsup {
			res.NumFrequentItems++
		}
	}

	// The same partition plan single-node hybrid mining uses; no row
	// cap, so there is no residual pass and every partition ships whole.
	parts, _ := hybrid.PlanPartitions(d, cls, opts.Minsup, 0)
	res.Partitions = len(parts)

	seen := map[string]bool{}
	var stats engine.Stats

	roundSize := len(c.peers)
	if roundSize < 1 {
		roundSize = 1
	}
	floor := 0.0
	for start := 0; start < len(parts); start += roundSize {
		round := parts[start:min(start+roundSize, len(parts))]
		type partOut struct {
			groups []*rules.Group
			stats  engine.Stats
			err    error
		}
		outs := make([]partOut, len(round))
		var wg sync.WaitGroup
		for i, part := range round {
			wg.Add(1)
			go func(i int, part []int) {
				defer wg.Done()
				gs, st, err := c.minePartition(ctx, d, cls, part, start+i, opts, floor)
				outs[i] = partOut{gs, st, err}
			}(i, part)
		}
		wg.Wait()
		// Merge strictly in plan order: boundary ties are broken by
		// arrival, so the offer sequence must not depend on which peer
		// answered first.
		for _, out := range outs {
			if out.err != nil {
				return nil, engine.Stats{}, out.err
			}
			absorb(&stats, out.stats)
			for _, g := range out.groups {
				offer(g, lists, seen)
			}
		}
		floor = computeFloor(lists)
	}

	collected := map[*rules.Group]bool{}
	for r, l := range lists {
		gs := l.Groups()
		out := make([]*rules.Group, len(gs))
		copy(out, gs)
		res.PerRow[r] = out
		for _, g := range gs {
			if !collected[g] {
				collected[g] = true
				res.Groups = append(res.Groups, g)
			}
		}
	}
	rules.SortGroups(res.Groups)
	return res, stats, nil
}

// minePartition obtains one partition's rule groups (global row ids,
// significance order): from the partition's peer with retry/backoff,
// then — every attempt spent — mined locally with the same floor.
func (c *Coordinator) minePartition(ctx context.Context, d *dataset.Dataset, cls dataset.Label, part []int, partIdx int, opts engine.Options, floor float64) ([]*rules.Group, engine.Stats, error) {
	if len(c.peers) > 0 {
		peer := c.peers[partIdx%len(c.peers)]
		backoff := c.backoff
		for attempt := 0; attempt <= c.retries; attempt++ {
			if attempt > 0 {
				if err := sleepCtx(ctx, backoff); err != nil {
					return nil, engine.Stats{}, err
				}
				backoff *= 2
			}
			gs, st, err := c.mineRemote(ctx, peer, d, cls, part, opts, floor)
			if err == nil {
				return gs, st, nil
			}
			if ctx.Err() != nil {
				return nil, engine.Stats{}, ctx.Err()
			}
			c.logw("sub-job attempt failed", "peer", peer, "partition", partIdx, "attempt", attempt, "err", err)
		}
		c.logw("peer exhausted, mining partition locally", "peer", peer, "partition", partIdx)
	}
	return c.mineLocal(ctx, d, cls, part, opts, floor)
}

// mineRemote runs one partition on one peer: submit the sub-job, poll
// it to a terminal state, convert the returned group list to global
// row ids. The whole attempt shares one SubJobTimeout deadline.
func (c *Coordinator) mineRemote(ctx context.Context, peer string, d *dataset.Dataset, cls dataset.Label, part []int, opts engine.Options, floor float64) ([]*rules.Group, engine.Stats, error) {
	actx, cancel := context.WithTimeout(ctx, c.subJobTimeout)
	defer cancel()

	req := serve.JobRequest{
		Spec: jobs.Spec{
			Kind:         jobs.KindMine,
			Miner:        "topk",
			Class:        d.ClassNames[cls],
			K:            opts.K,
			Minsup:       opts.Minsup,
			Minconf:      floor,
			ReturnGroups: true,
			Timeout:      jobs.Duration(c.subJobTimeout),
		},
		Data: &serve.InlineDataset{
			Classes:  d.ClassNames,
			NumItems: d.NumItems(),
			Rows:     make([]serve.InlineRow, len(part)),
		},
	}
	for i, r := range part {
		req.Data.Rows[i] = serve.InlineRow{Items: d.Rows[r], Label: int(d.Labels[r])}
	}

	rec, err := c.submitJob(actx, peer, &req)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	for !rec.Terminal() {
		if err := sleepCtx(actx, c.pollInterval); err != nil {
			return nil, engine.Stats{}, err
		}
		if rec, err = c.getJob(actx, peer, rec.ID); err != nil {
			return nil, engine.Stats{}, err
		}
	}
	if rec.State != jobs.StateSucceeded || rec.Partial {
		return nil, engine.Stats{}, fmt.Errorf("cluster: sub-job %s on %s ended %s: %s", rec.ID, peer, rec.State, rec.Error)
	}
	var st engine.Stats
	var list []jobs.MinedGroup
	if rec.Result != nil {
		st.Nodes = rec.Result.Nodes
		st.Groups = rec.Result.Groups
		list = rec.Result.GroupList
	}
	groups := make([]*rules.Group, len(list))
	for i, mg := range list {
		rows := bitset.New(d.NumRows())
		for _, lr := range mg.Rows {
			if lr < 0 || lr >= len(part) {
				return nil, engine.Stats{}, fmt.Errorf("cluster: sub-job %s on %s returned row %d outside partition of %d rows", rec.ID, peer, lr, len(part))
			}
			rows.Add(part[lr])
		}
		groups[i] = &rules.Group{
			Antecedent: mg.Items,
			Class:      dataset.Label(mg.Class),
			Support:    mg.Support,
			Confidence: mg.Confidence,
			Rows:       rows,
		}
	}
	return groups, st, nil
}

// mineLocal is the degraded path: the exact computation a healthy
// worker performs, run in-process. Group row sets are remapped to
// global ids; res.Groups is already in significance order.
func (c *Coordinator) mineLocal(ctx context.Context, d *dataset.Dataset, cls dataset.Label, part []int, opts engine.Options, floor float64) ([]*rules.Group, engine.Stats, error) {
	cfg := core.DefaultConfig(opts.Minsup, opts.K)
	cfg.MinConf = floor
	res, err := core.MineContext(ctx, d.Subset(part), cls, cfg)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	for _, g := range res.Groups {
		global := bitset.New(d.NumRows())
		g.Rows.ForEach(func(localR int) bool {
			global.Add(part[localR])
			return true
		})
		g.Rows = global
	}
	return res.Groups, res.Stats, nil
}

// submitJob POSTs the sub-job and decodes the accepted record.
func (c *Coordinator) submitJob(ctx context.Context, peer string, jr *serve.JobRequest) (*jobs.Record, error) {
	body, err := json.Marshal(jr)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode sub-job: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.doJob(req, http.StatusAccepted)
}

// getJob fetches one job record from a peer.
func (c *Coordinator) getJob(ctx context.Context, peer, id string) (*jobs.Record, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	return c.doJob(req, http.StatusOK)
}

func (c *Coordinator) doJob(req *http.Request, want int) (*jobs.Record, error) {
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() // vetsuite:allow uncheckederr -- response body, nothing buffered to lose
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // vetsuite:allow uncheckederr -- best-effort error detail
		return nil, fmt.Errorf("cluster: %s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, msg)
	}
	var rec jobs.Record
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&rec); err != nil {
		return nil, fmt.Errorf("cluster: decode job record: %w", err)
	}
	return &rec, nil
}

// offer inserts a group into the boards of the positive rows it
// covers, deduplicating groups rediscovered from several partitions —
// the same merge hybrid.MineContext performs.
func offer(g *rules.Group, lists map[int]*rules.TopKList, seen map[string]bool) {
	key := g.Key()
	if seen[key] {
		return
	}
	seen[key] = true
	g.Rows.ForEach(func(r int) bool {
		if l, ok := lists[r]; ok {
			l.Consider(g)
		}
		return true
	})
}

// computeFloor returns the confidence every remaining group must reach
// to enter any per-row board: the weakest threshold confidence across
// the boards, or 0 while any board is short of k entries. Thresholds
// only tighten as partitions merge, so the floor is a sound static
// prune for all later rounds.
func computeFloor(lists map[int]*rules.TopKList) float64 {
	floor := -1.0
	for _, l := range lists {
		if l.Len() < l.K() {
			return 0
		}
		conf, _ := l.Threshold()
		if floor < 0 || rules.CompareConf(conf, floor) < 0 {
			floor = conf
		}
	}
	if floor < 0 {
		return 0
	}
	return floor
}

// absorb folds one partition's statistics into the run totals. Remote
// partitions report nodes and group counts only; the prune counters
// cover just locally-mined partitions.
func absorb(total *engine.Stats, st engine.Stats) {
	total.Nodes += st.Nodes
	total.BackwardPruned += st.BackwardPruned
	total.PrunedBeforeScan += st.PrunedBeforeScan
	total.PrunedAfterScan += st.PrunedAfterScan
	total.Groups += st.Groups
	total.MaxDepth = max(total.MaxDepth, st.MaxDepth)
}

// sleepCtx waits d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (c *Coordinator) logw(msg string, args ...any) {
	if c.logger != nil {
		c.logger.Warn(msg, args...)
	}
}
