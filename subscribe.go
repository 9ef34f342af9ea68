package pnn

import (
	"runtime"
	"time"

	"pnn/internal/query"
	"pnn/internal/shard"
	"pnn/internal/sub"
)

// Delivery configures how a subscription's events reach its consumer;
// see sub.Delivery for field semantics.
type Delivery = sub.Delivery

// SubEvent is one delivered subscription result. Payload, when the
// event is not a terminal Bye, is a Response evaluated at
// SubEvent.Version. The Response is read-only: the members of one
// standing group that share (semantics, tau) receive the same Response,
// backing arrays included, so editing it in place would change what
// every one of them sees.
type SubEvent = sub.Event

// Subscription is one standing query; consume results from Events().
type Subscription = sub.Subscription

// SubscriptionInfo describes one registered subscription;
// Meta is the Request it was registered with.
type SubscriptionInfo = sub.Info

// SubscriptionStats are the registry's cumulative counters — most
// importantly Evaluations vs Notifies, the measure of how selective
// write-path invalidation is.
type SubscriptionStats = sub.Stats

// DefaultSweepInterval is the default bounded delay of the
// subscription sweep scheduler: writes accumulate invalidations for at
// most this long before one grouped re-evaluation sweep drains them.
// Tune per processor with SetSweepInterval (0 restores per-write
// sweeps).
const DefaultSweepInterval = 2 * time.Millisecond

// newProcessor wires a processor around a built shard set, including
// the standing-query registry (its workers are idle until the first
// Subscribe).
func newProcessor(net *Network, set *shard.Set) *Processor {
	p := &Processor{net: net, set: set}
	p.Front = NewFront(func() View { return localView{p.set.Snapshot()} }, sweepWorkers())
	return p
}

// sweepWorkers sizes the standing-query evaluation pool: every CPU but
// one. Sweeps are background work that one-shot reads and writes on the
// same process must not queue behind; with the pool as wide as the
// machine, a sweep holds every CPU while it runs. On 2 vCPUs (AMD EPYC,
// Go 1.24.0) a two-worker pool put the ingest-subscribed read p50 at
// ~4.8 ms against ~3.1 ms with one worker, and subscription event lag
// was no lower with two.
func sweepWorkers() int { return max(1, runtime.GOMAXPROCS(0)-1) }

// notifySubscriptions classifies one published write for the standing
// queries: the touch predicate resolves the written object against the
// snapshot that write produced (never a later one), so the test runs
// on exactly the rectangles the published version serves.
func (p *Processor) notifySubscriptions(snap *shard.Snap) {
	p.NotifyWrite(snap.ChangedID, snap.Toucher(snap.ChangedID))
}

// localView is a processor's View: one pinned composite snapshot.
type localView struct{ snap *shard.Snap }

func (v localView) RunGroup(spec shard.GroupSpec, items []shard.GroupItem) ([]shard.GroupAnswer, query.Stats, shard.Influence, VersionInfo, error) {
	answers, raw, inf, err := v.snap.RunSharedInfluence(spec, items)
	return answers, raw, inf, versionOf(v.snap), err
}

func (v localView) Version() VersionInfo { return versionOf(v.snap) }
