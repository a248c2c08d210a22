package main

import (
	"fmt"

	"privstm/internal/rng"
)

// The kv store shape and request stream shared by kv-tcp and kv-inproc, so
// the two workloads run the same transactions and differ only in the
// service path. The mix is stmbench's default remote mix.
const (
	kvBuckets   = 1 << 16
	kvStripes   = 256
	kvHeapWords = 1 << 23 // 2^20 keys x 3 words = 37.5% of the heap
	kvTheta     = 0.99
	kvBatch     = 4
	// kvFillBatch is the number of (key, value) pairs per pre-population
	// transaction.
	kvFillBatch = 1024
)

type kvOp uint8

const (
	opGet kvOp = iota
	opPut
	opCAS
	opDelete
	opSnapshot
	numKVOps
)

var kvOpNames = [numKVOps]string{"get", "put", "cas", "delete", "snapshot"}

// kvMixPct is the percentage of each op, indexed by kvOp.
var kvMixPct = [numKVOps]int{70, 20, 5, 4, 1}

// kvReq is one request: keys[:n] for GET/PUT/DELETE (PUT writes 2k+1),
// keys[0] for CAS (2k+1 -> 2k+3), bucket for SNAPSHOT. A SNAPSHOT removes
// the bucket's pairs from the map, and the client's next request is a PUT
// that puts them back: without it, 1% snapshots of ~16-key buckets drain a
// large share of the map within one run, and every metric drifts with it.
// The restoring PUT is a request of its own, so no operation costs two
// round trips and puts a 1% mass at twice the typical latency next to p99.
type kvReq struct {
	op     kvOp
	n      int
	keys   [kvBatch]uint64
	bucket uint64
}

// kvGen draws the request stream of one client. Streams are a pure function
// of (seed, client id).
type kvGen struct {
	r *rng.RNG
	z *rng.Zipf
}

func newKVGen(seed uint64, client int, keys int) *kvGen {
	r := rng.New(seed*0x9e3779b97f4a7c15 + uint64(client)*0xbf58476d1ce4e5b9 + 1)
	return &kvGen{r: r, z: rng.NewZipf(r, uint64(keys), kvTheta)}
}

func (g *kvGen) next(q *kvReq) {
	pick := g.r.Intn(100)
	q.op = opSnapshot
	for op := kvOp(0); op < opSnapshot; op++ {
		if pick < kvMixPct[op] {
			q.op = op
			break
		}
		pick -= kvMixPct[op]
	}
	switch q.op {
	case opCAS:
		q.n = 1
		q.keys[0] = g.z.Next()
	case opSnapshot:
		q.n = 0
		q.bucket = g.r.Uint64()
	default:
		q.n = kvBatch
		for i := range q.keys {
			q.keys[i] = g.z.Next()
		}
	}
}

// kvValueOK reports whether v is a value the workload can have stored
// under k: 2k+1 from pre-population or PUT, 2k+3 from a successful CAS.
func kvValueOK(k, v uint64) bool { return v == 2*k+1 || v == 2*k+3 }

// checker collects correctness failures. A failed check marks the run
// incorrect; the first few are described on standard error.
type checker struct {
	fails uint64
	msgs  []string
}

func (c *checker) failf(format string, args ...any) {
	c.fails++
	if len(c.msgs) < 8 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

func (c *checker) merge(o *checker) {
	c.fails += o.fails
	for _, m := range o.msgs {
		if len(c.msgs) < 8 {
			c.msgs = append(c.msgs, m)
		}
	}
}
