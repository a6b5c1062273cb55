package experiments

import (
	"time"

	"github.com/peace-mesh/peace/internal/chaos"
)

// E13TransportRow is one loopback handshake run at a given concurrency
// and loss rate.
type E13TransportRow struct {
	Users            int
	Loss             float64
	Established      int
	Failed           int
	Elapsed          time.Duration
	HandshakesPerSec float64
	P50              time.Duration
	P99              time.Duration
	Retransmits      int64
	DatagramsDropped int64
}

// E13TransportReport measures the real-UDP datapath: N concurrent users
// driving full M.1–M.3 over loopback sockets, lossless and with induced
// datagram loss, so the cost of the retransmission machinery is visible
// next to the clean-path throughput.
type E13TransportReport struct {
	Rows []E13TransportRow
}

// RunE13Transport runs the loopback handshake sweep. Each point
// provisions its own network so router state never carries across runs.
func RunE13Transport(userCounts []int, losses []float64) (*E13TransportReport, error) {
	rep := &E13TransportReport{}
	for _, users := range userCounts {
		for _, loss := range losses {
			lb, err := chaos.RunLoopback(chaos.LoopbackConfig{
				Users: users,
				Loss:  loss,
				Seed:  1,
			})
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, E13TransportRow{
				Users:            users,
				Loss:             loss,
				Established:      lb.Established,
				Failed:           lb.Failed,
				Elapsed:          lb.Elapsed,
				HandshakesPerSec: lb.HandshakesPerSec,
				P50:              lb.P50,
				P99:              lb.P99,
				Retransmits:      lb.ClientRetransmits,
				DatagramsDropped: lb.DatagramsDropped,
			})
		}
	}
	return rep, nil
}
