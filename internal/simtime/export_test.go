package simtime

// Handoffs reports how many times the baton passed to another goroutine:
// a process start or a resume of a process other than the one parking.
func (s *Scheduler) Handoffs() int { return s.handoffs }
