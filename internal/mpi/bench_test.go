package mpi

import "testing"

// benchMessages runs body once on p ranks with b.N handed to it as the
// round count, and reports the wall cost per message: the runtime's own
// budget, readable with `go test -bench` and no harness. Run set-up
// (goroutines, mailboxes) is inside the timed span and amortizes over N.
func benchMessages(b *testing.B, p, perRound int, body func(p *Proc, rounds int)) {
	b.ReportAllocs()
	if _, err := Run(Config{P: p}, func(p *Proc) { body(p, b.N) }); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perRound), "ns/message")
}

// BenchmarkPingPong: two ranks, every receive parks and is handed its
// message — the pairwise dependency chain at its barest.
func BenchmarkPingPong(b *testing.B) {
	benchMessages(b, 2, 2, func(p *Proc, rounds int) {
		w, peer := p.World(), 1-p.Rank()
		for i := 0; i < rounds; i++ {
			if p.Rank() == 0 {
				w.Send(peer, 5, 64, nil)
				w.Recv(peer, 5)
			} else {
				w.Recv(peer, 5)
				w.Send(peer, 5, 64, nil)
			}
		}
	})
}

// BenchmarkAlltoall: P=64, 4032 messages a round. enacted sends them
// (a mix of parks and queue hits with up to 63 senders depositing into
// one mailbox: the path of TCP fleets and causal runs, and PHASE's
// whole run before Alltoall was evaluated); evaluated sends none
// (Comm.alltoall in process: the rendezvous, the fold and the
// hand-off), priced per message the round would have sent.
func BenchmarkAlltoall(b *testing.B) {
	const p = 64
	for _, path := range []struct {
		name     string
		exchange func(c *Comm, tag, bytes int)
	}{{"enacted", (*Comm).enactAlltoall}, {"evaluated", (*Comm).evalAlltoall}} {
		b.Run(path.name, func(b *testing.B) {
			benchMessages(b, p, p*(p-1), func(p *Proc, rounds int) {
				for i := 0; i < rounds; i++ {
					path.exchange(p.World(), collTag(CommWorld, i, 0), 64)
				}
			})
		})
	}
}

// BenchmarkTreeCollectives: P=64, one round of each binomial-tree
// shape, priced per message the round sends or would send: barrier (a
// reduce and a 0-byte broadcast), allreduce (the same hops with an
// 8-byte broadcast) and gather (treeGather to rank 0, each hop
// carrying its subtree's contributions, then a 0-byte broadcast that
// releases the round: without it the leaves, which only send, run
// rounds ahead of the root and the benchmark prices their backlog).
// barrier and allreduce run on both paths, as BenchmarkAlltoall does:
// enacted sends the messages (the path of TCP fleets and causal runs),
// evaluated sends none (the rendezvous, foldTree and the hand-off).
func BenchmarkTreeCollectives(b *testing.B) {
	const p = 64
	allreduce := func(impl allreduceImpl, bcastBytes int) func(c *Comm) {
		return func(c *Comm) { impl(c, collTag(c.id, c.nextSeq(), 0), 1, OpSum, bcastBytes) }
	}
	for _, shape := range []struct {
		name  string
		round func(c *Comm)
	}{
		{"barrier/enacted", allreduce((*Comm).enactAllreduce, 0)},
		{"barrier/evaluated", allreduce((*Comm).evalAllreduce, 0)},
		{"allreduce/enacted", allreduce((*Comm).enactAllreduce, 8)},
		{"allreduce/evaluated", allreduce((*Comm).evalAllreduce, 8)},
		{"gather", func(c *Comm) {
			seq := c.nextSeq()
			c.treeGather(0, collTag(c.id, seq, 0), 64, nil)
			c.treeBcast(0, collTag(c.id, seq, 1), message{})
		}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			benchMessages(b, p, 2*(p-1), func(p *Proc, rounds int) {
				for i := 0; i < rounds; i++ {
					shape.round(p.World())
				}
			})
		})
	}
}
