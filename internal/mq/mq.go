// Package mq is the message queue substrate of Figs. 2 and 4: a
// topic/partition-structured, strictly ordered, replayable message log.
//
// It plays both roles the paper assigns to messaging infrastructure:
//
//   - the message log — "all product update messages of a day are buffered
//     in a message log" and replayed in order by the periodic full indexing
//     (Fig. 2); consumers can therefore (re)attach at any historical offset;
//   - the live queue — real-time indexing tails each partition and applies
//     every event "instantly" (Fig. 4); Poll blocks until messages arrive.
//
// Messages within a partition are totally ordered and immutable once
// produced. Partitioning mirrors the index partitioning (hash of image URL
// / product key), so each searcher consumes exactly one partition.
package mq

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// Message is one enqueued payload with its partition-local offset and the
// time Produce appended it, from which a searcher times each update.
type Message struct {
	Offset   int64
	Payload  []byte
	Enqueued time.Time
}

// ErrClosed is returned by operations on a closed queue.
var ErrClosed = errors.New("mq: queue closed")

// partition is an append-only message log with blocking consumption.
type partition struct {
	mu     sync.Mutex
	cond   *sync.Cond
	msgs   []Message
	closed bool
}

func newPartition() *partition {
	p := &partition{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *partition) produce(payload []byte) (int64, error) {
	// Copy at the boundary: the caller may reuse its buffer.
	dup := make([]byte, len(payload))
	copy(dup, payload)
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, ErrClosed
	}
	off := int64(len(p.msgs))
	p.msgs = append(p.msgs, Message{Offset: off, Payload: dup, Enqueued: now})
	p.cond.Broadcast()
	return off, nil
}

// poll returns up to max messages starting at offset, blocking up to wait
// for at least one. A zero wait polls without blocking.
func (p *partition) poll(offset int64, max int, wait time.Duration) ([]Message, error) {
	deadline := time.Now().Add(wait)
	var timer *time.Timer
	if wait > 0 {
		timer = time.AfterFunc(wait, func() {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		})
		defer timer.Stop()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if offset < int64(len(p.msgs)) {
			end := offset + int64(max)
			if end > int64(len(p.msgs)) {
				end = int64(len(p.msgs))
			}
			out := make([]Message, end-offset)
			copy(out, p.msgs[offset:end])
			return out, nil
		}
		if p.closed {
			return nil, ErrClosed
		}
		if wait <= 0 || !time.Now().Before(deadline) {
			return nil, nil
		}
		p.cond.Wait()
	}
}

func (p *partition) length() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(len(p.msgs))
}

func (p *partition) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.cond.Broadcast()
}

// Queue is a set of named topics, each with a fixed number of partitions.
type Queue struct {
	mu     sync.RWMutex
	topics map[string][]*partition
	closed bool
}

// New returns an empty queue.
func New() *Queue {
	return &Queue{topics: make(map[string][]*partition)}
}

// CreateTopic creates topic with n partitions. Creating an existing topic
// with the same partition count is a no-op; with a different count it is an
// error (resizing would break the URL-hash placement contract).
func (q *Queue) CreateTopic(topic string, n int) error {
	if n <= 0 {
		return fmt.Errorf("mq: topic %q needs at least one partition", topic)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if ps, ok := q.topics[topic]; ok {
		if len(ps) != n {
			return fmt.Errorf("mq: topic %q already has %d partitions, not %d", topic, len(ps), n)
		}
		return nil
	}
	ps := make([]*partition, n)
	for i := range ps {
		ps[i] = newPartition()
	}
	q.topics[topic] = ps
	return nil
}

// Partitions returns the partition count of topic, or 0 if it does not
// exist.
func (q *Queue) Partitions(topic string) int {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return len(q.topics[topic])
}

func (q *Queue) partition(topic string, part int) (*partition, error) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	ps, ok := q.topics[topic]
	if !ok {
		return nil, fmt.Errorf("mq: unknown topic %q", topic)
	}
	if part < 0 || part >= len(ps) {
		return nil, fmt.Errorf("mq: partition %d out of range for topic %q (%d partitions)", part, topic, len(ps))
	}
	return ps[part], nil
}

// Produce appends payload to the given partition of topic and returns its
// offset.
func (q *Queue) Produce(topic string, part int, payload []byte) (int64, error) {
	p, err := q.partition(topic, part)
	if err != nil {
		return 0, err
	}
	return p.produce(payload)
}

// ProduceKeyed appends payload to the partition selected by hashing key —
// the same FNV placement used for index partitioning, so an image's update
// events always land on the searcher that owns it.
func (q *Queue) ProduceKeyed(topic, key string, payload []byte) (int, int64, error) {
	q.mu.RLock()
	n := len(q.topics[topic])
	q.mu.RUnlock()
	if n == 0 {
		return 0, 0, fmt.Errorf("mq: unknown topic %q", topic)
	}
	part := int(PartitionFor(key, n))
	off, err := q.Produce(topic, part, payload)
	return part, off, err
}

// PartitionFor returns the partition that key hashes to among n partitions.
func PartitionFor(key string, n int) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key)) // hash.Write never fails
	return h.Sum32() % uint32(n)
}

// Len returns the number of messages in the given partition.
func (q *Queue) Len(topic string, part int) (int64, error) {
	p, err := q.partition(topic, part)
	if err != nil {
		return 0, err
	}
	return p.length(), nil
}

// Close shuts the queue down: producers fail and blocked consumers wake
// with ErrClosed once they drain remaining messages.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	for _, ps := range q.topics {
		for _, p := range ps {
			p.close()
		}
	}
}

// Consumer reads one partition sequentially from a starting offset. It is
// not safe for concurrent use; each real-time indexer owns one consumer.
type Consumer struct {
	q      *Queue
	topic  string
	part   int
	offset int64
}

// NewConsumer attaches to topic/partition at offset (0 replays from the
// beginning of the log, mirroring full indexing's daily replay).
func (q *Queue) NewConsumer(topic string, part int, offset int64) (*Consumer, error) {
	if _, err := q.partition(topic, part); err != nil {
		return nil, err
	}
	return &Consumer{q: q, topic: topic, part: part, offset: offset}, nil
}

// Poll returns up to max messages, blocking up to wait for at least one.
// It returns (nil, nil) on timeout and ErrClosed once the queue is closed
// and drained.
func (c *Consumer) Poll(max int, wait time.Duration) ([]Message, error) {
	p, err := c.q.partition(c.topic, c.part)
	if err != nil {
		return nil, err
	}
	msgs, err := p.poll(c.offset, max, wait)
	if err != nil {
		return nil, err
	}
	if len(msgs) > 0 {
		c.offset = msgs[len(msgs)-1].Offset + 1
	}
	return msgs, nil
}

// Offset returns the next offset the consumer will read.
func (c *Consumer) Offset() int64 { return c.offset }

// SeekTo repositions the consumer.
func (c *Consumer) SeekTo(offset int64) { c.offset = offset }
