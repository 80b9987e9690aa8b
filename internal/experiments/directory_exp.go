package experiments

import (
	"fmt"
	"time"

	"dosgi/internal/cluster"
)

// ---------------------------------------------------------------------------
// E13 — directory convergence at scale: single replicated group vs the
// rendezvous-sharded directory.
//
// A fixed cluster announces an endpoint population (spread round-robin
// across the nodes) into the replicated directory and runs the simulator
// until every node's replica holds every record. With a single GCS group,
// one coordinator sequences every broadcast: when each record is its own
// submission, its per-node message load is the whole population times the
// fan-out. With N shard groups and ranked member ids, sequencing duty
// spreads across the nodes, so the hottest node's traffic drops toward
// total/nodes while the records stay exactly replicated. When records
// arrive in bursts, the GCS batches each member's burst into one request
// per group, and the message counts turn the other way (the Bursts rows).
// The experiment runs entirely on the deterministic simulator: identical
// numbers on every machine.

// E13Row reports one (endpoints × shards) cell.
type E13Row struct {
	Endpoints int
	Shards    int
	Nodes     int
	// PerTurn is the number of records announced together, in one
	// scheduler turn, before the simulator runs on.
	PerTurn int
	// Converge is the simulated time from the first announce until every
	// node's replica holds the full population.
	Converge time.Duration
	// MaxNodeSent/MaxNodeRecv are the hottest single node's GCS messages
	// sent/received while the population filled — the per-node broadcast
	// load the sharding is meant to flatten.
	MaxNodeSent int64
	MaxNodeRecv int64
	// TotalSent is the cluster-wide message count for the same fill.
	TotalSent int64
}

// E13DirectorySharding fills an n-node cluster's directory with each
// endpoint count, once per shard count, and reports convergence time and
// per-node broadcast traffic for every cell. Records arrive one per
// simulated microsecond, each in its own scheduler turn, so every record
// is its own GCS submission: the rows measure the per-record sequencing
// load.
func E13DirectorySharding(endpointCounts, shardCounts []int, nodes int) ([]E13Row, error) {
	return e13Rows(endpointCounts, shardCounts, nodes, 1, time.Microsecond)
}

// E13DirectoryShardingBursts is E13DirectorySharding at the same average
// offered rate in bursts: 1,000 records in one scheduler turn per
// simulated millisecond. The GCS sends the total-order broadcasts one
// member makes in one turn as one order request per group, so a burst
// costs each group a few messages whatever its size, and splitting it
// across shard groups multiplies them: here the sharded layout's hottest
// node sends more messages than the single group's.
func E13DirectoryShardingBursts(endpointCounts, shardCounts []int, nodes int) ([]E13Row, error) {
	return e13Rows(endpointCounts, shardCounts, nodes, 1000, time.Millisecond)
}

func e13Rows(endpointCounts, shardCounts []int, nodes, perTurn int, every time.Duration) ([]E13Row, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("experiments: e13 needs at least 2 nodes")
	}
	var rows []E13Row
	for _, eps := range endpointCounts {
		for _, shards := range shardCounts {
			row, err := e13Run(eps, shards, nodes, perTurn, every)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func e13Run(endpoints, shards, nodes, perTurn int, every time.Duration) (E13Row, error) {
	if endpoints <= 0 || shards <= 0 {
		return E13Row{}, fmt.Errorf("experiments: e13 needs positive endpoints and shards")
	}
	// The record burst dwarfs any heartbeat-ack window, so the slow-member
	// log alarm is off; periodic anti-entropy is off too, so the counted
	// messages are exactly the announce broadcasts plus group upkeep.
	c := cluster.New(13,
		cluster.WithDirectoryShards(shards),
		cluster.WithGCSMaxTotalLog(-1),
		cluster.WithDirectoryResyncEvery(-1))
	ns := make([]*cluster.Node, 0, nodes)
	for i := 0; i < nodes; i++ {
		n, err := c.AddNode(cluster.NodeConfig{ID: fmt.Sprintf("node%02d", i)})
		if err != nil {
			return E13Row{}, err
		}
		ns = append(ns, n)
	}
	c.Settle(2 * time.Second) // stable membership in every shard group

	base := make([][2]int64, nodes)
	for i, n := range ns {
		s, r := n.DirectoryMsgCounts()
		base[i] = [2]int64{s, r}
	}
	start := c.Now()

	// Announce in rounds of perTurn records (round-robin across the
	// announcing nodes), one round per every of simulated time, so the
	// ordered-broadcast pipeline sees a storm at a bounded offered rate
	// instead of a single infinitely fast burst.
	for i := 0; i < endpoints; {
		for j := 0; j < perTurn && i < endpoints; j, i = j+1, i+1 {
			n := ns[i%nodes]
			n.Migration().AnnounceEndpoint(fmt.Sprintf("ep-%06d", i), n.ID()+":80")
		}
		c.Settle(every)
	}

	// Run until every replica holds the whole population (each key is
	// announced exactly once, so the family's Added counter is the
	// replica's record count).
	want := int64(endpoints)
	deadline := c.Now() + 120*time.Second
	for {
		converged := true
		for _, n := range ns {
			if n.Migration().EndpointStats().Added < want {
				converged = false
				break
			}
		}
		if converged {
			break
		}
		if c.Now() > deadline {
			return E13Row{}, fmt.Errorf("experiments: e13 %d endpoints / %d shards never converged", endpoints, shards)
		}
		c.Settle(5 * time.Millisecond)
	}

	row := E13Row{Endpoints: endpoints, Shards: shards, Nodes: nodes, PerTurn: perTurn, Converge: c.Now() - start}
	for i, n := range ns {
		s, r := n.DirectoryMsgCounts()
		ds, dr := s-base[i][0], r-base[i][1]
		row.TotalSent += ds
		if ds > row.MaxNodeSent {
			row.MaxNodeSent = ds
		}
		if dr > row.MaxNodeRecv {
			row.MaxNodeRecv = dr
		}
	}
	return row, nil
}
