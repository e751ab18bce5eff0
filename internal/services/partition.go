package services

import (
	"hash/fnv"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// DefaultPartitionQueue is the task queue capacity of every partition
// worker. A full queue blocks the stream's ordered dispatch stage — and
// through it the publishing POST /events handlers, which keep holding
// admission slots until the publish completes, so sustained detector
// overload surfaces as -max-pending-events 429s at the edge rather than
// unbounded memory growth.
const DefaultPartitionQueue = 256

// DetectorPool is the one queueing stage between the stream's ordered
// dispatch and the detectors. Each detector a DetectorHost registers, in
// whatever event language, is pinned to one partition by FNV hash of its
// rule key at registration time, and a partition runs its tasks one at
// a time in the order they were enqueued — the ordered dispatch enqueues in
// Seq order, hence every detector observes a totally ordered event feed.
// With workers, each partition is a goroutine behind a bounded queue:
// independent detectors evaluate in parallel and one rule's slow delivery
// endpoint cannot stall another partition's detection. The zero-worker pool
// is inline detection: its single partition runs each task on the enqueuing
// goroutine before Enqueue returns — so a publish returns only after the
// detections it caused were delivered.
type DetectorPool struct {
	parts []*partition
	wg    sync.WaitGroup
	close sync.Once
}

type partition struct {
	mu     sync.Mutex   // zero-worker pool: serializes tasks run on their callers
	tasks  chan Task    // nil in the zero-worker pool
	events *obs.Counter // snoop_partition_events_total{partition}
	depth  *obs.Gauge   // snoop_partition_queue_depth{partition}
}

// NewDetectorPool starts one goroutine per partition, each behind a task
// queue of DefaultPartitionQueue; workers <= 0 builds the zero-worker pool,
// which starts none. The hub's metrics registry receives per-partition
// counters; a nil hub runs uninstrumented.
func NewDetectorPool(workers int, h *obs.Hub) *DetectorPool {
	reg := h.Metrics()
	eventsVec := reg.CounterVec("snoop_partition_events_total",
		"Detection tasks handed to each partition (one task per event per partition with pinned detectors).", "partition")
	depthVec := reg.GaugeVec("snoop_partition_queue_depth",
		"Detection tasks waiting in each partition worker's queue (always 0 without workers).", "partition")
	p := &DetectorPool{}
	for i := 0; i < max(workers, 1); i++ {
		w := &partition{
			events: eventsVec.With(strconv.Itoa(i)),
			depth:  depthVec.With(strconv.Itoa(i)),
		}
		p.parts = append(p.parts, w)
		if workers > 0 {
			w.tasks = make(chan Task, DefaultPartitionQueue)
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				for task := range w.tasks {
					w.depth.Set(float64(len(w.tasks)))
					if then := task(); then != nil {
						then()
					}
				}
			}()
		}
	}
	return p
}

// Workers returns the partition count (1 for the zero-worker pool).
func (p *DetectorPool) Workers() int { return len(p.parts) }

// inline reports whether p is the zero-worker pool, whose tasks run on the
// enqueuing goroutine.
func (p *DetectorPool) inline() bool { return p.parts[0].tasks == nil }

// Pick pins a rule key to a partition: FNV-1a of the key modulo the
// partition count. The pin is stable for the detector's lifetime, which is
// what guarantees its ordered feed.
func (p *DetectorPool) Pick(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	// Reduced as uint32: int(Sum32()) is negative on 32-bit platforms.
	return int(h.Sum32() % uint32(len(p.parts)))
}

// A Task is one unit of a partition's work. It runs serialized with the
// partition's other tasks. The function it returns, if not nil, runs right
// after it: in the zero-worker pool on the enqueuing goroutine with the
// partition's mutex released, with workers as the worker's next step.
// Delivery goes there, because a delivery can publish (act:raise) and so
// enqueue on the same partition again, which must not wait for the task
// that is delivering.
type Task func() (then func())

// Enqueue hands a task to the given partition. With workers it blocks
// while the partition's queue is full (the documented back-pressure
// contract) and the task runs later on the partition's goroutine; without,
// the task runs here, serialized with the partition's other callers, and its
// follow-up runs here too once the partition is released. Either way tasks
// enqueued by one goroutine run in enqueue order.
func (p *DetectorPool) Enqueue(part int, task Task) {
	w := p.parts[part]
	w.events.Inc()
	if w.tasks == nil {
		if then := w.run(task); then != nil {
			then()
		}
		return
	}
	w.tasks <- task
	w.depth.Set(float64(len(w.tasks)))
}

// run runs a task of the zero-worker partition under its mutex.
func (w *partition) run(task Task) func() {
	w.mu.Lock()
	defer w.mu.Unlock()
	return task()
}

// fanOut enqueues, in partition order, the task that taskFor returns for
// each partition; a nil task skips a partition that holds no detector.
func (p *DetectorPool) fanOut(taskFor func(part int) Task) {
	for i := range p.parts {
		if task := taskFor(i); task != nil {
			p.Enqueue(i, task)
		}
	}
}

// QueueDepth returns the number of detection tasks waiting across all
// partition queues (always 0 for the zero-worker pool).
func (p *DetectorPool) QueueDepth() int {
	n := 0
	for _, w := range p.parts {
		n += len(w.tasks)
	}
	return n
}

// Close stops the workers after draining every queued task. Callers must
// stop producing first (unsubscribe the services from their stream and
// stop Advance tickers); enqueueing after Close panics.
func (p *DetectorPool) Close() {
	p.close.Do(func() {
		for _, w := range p.parts {
			if w.tasks != nil {
				close(w.tasks)
			}
		}
	})
	p.wg.Wait()
}
