// Package a exercises the slotwrite analyzer: par tasks may write only to
// task-index-disjoint slots.
package a

import "par"

// badAppend grows a shared slice from inside tasks.
func badAppend(p *par.Pool, in []int) []int {
	var results []int
	p.ForEach(len(in), func(i int) {
		results = append(results, in[i]*2) // want `append to captured slice results inside a par task`
	})
	return results
}

// badScalar accumulates into a shared cell.
func badScalar(p *par.Pool, in []int) int {
	total := 0
	p.ForEach(len(in), func(i int) {
		total += in[i] // want `assignment to captured variable total inside a par task`
	})
	return total
}

// badIncDec is the same race spelled differently.
func badIncDec(p *par.Pool, in []int) int {
	n := 0
	p.ForEach(len(in), func(i int) {
		n++ // want `assignment to captured variable n inside a par task`
	})
	return n
}

// badMap writes a shared map concurrently.
func badMap(p *par.Pool, in []int) map[int]bool {
	seen := make(map[int]bool)
	p.ForEach(len(in), func(i int) {
		seen[in[i]] = true // want `write to captured map seen inside a par task`
	})
	return seen
}

// badDelete mutates a shared map the other way.
func badDelete(p *par.Pool, in []int, seen map[int]bool) {
	p.ForEach(len(in), func(i int) {
		delete(seen, in[i]) // want `delete from captured map seen inside a par task`
	})
}

// badFixedSlot writes a slot not derived from the task index.
func badFixedSlot(p *par.Pool, in []int) int {
	out := make([]int, 1)
	p.ForEach(len(in), func(i int) {
		out[0] = in[i] // want `write to captured out is not indexed by the task index`
	})
	return out[0]
}

// badForkShared lets two branches race on one result cell.
func badForkShared(p *par.Pool) int {
	var x int
	p.Fork(
		func() { x = 1 }, // want `captured variable x is written by 2 sibling Fork tasks`
		func() { x = 2 },
	)
	return x
}

// goodSlots is the sanctioned shape: pre-sized output, one slot per task.
func goodSlots(p *par.Pool, in []int) []int {
	out := make([]int, len(in))
	p.ForEach(len(in), func(i int) {
		out[i] = in[i] * 2
	})
	return out
}

// goodChunked derives slot indices from a task-local loop variable.
func goodChunked(p *par.Pool, in []int, chunk int) []int {
	out := make([]int, len(in))
	n := (len(in) + chunk - 1) / chunk
	p.ForEach(n, func(c int) {
		for j := c * chunk; j < len(in) && j < (c+1)*chunk; j++ {
			out[j] = in[j] * 2
		}
	})
	return out
}

// goodLocalGrowth appends to a task-local slice before a slot write.
func goodLocalGrowth(p *par.Pool, in []int) [][]int {
	out := make([][]int, len(in))
	p.ForEach(len(in), func(i int) {
		var acc []int
		acc = append(acc, in[i])
		out[i] = acc
	})
	return out
}

// goodSlotAppend grows the task's own slot: res[i] = append(res[i], ...).
func goodSlotAppend(p *par.Pool, in []int) [][]int {
	res := make([][]int, len(in))
	p.ForEach(len(in), func(i int) {
		res[i] = append(res[i], in[i])
	})
	return res
}

// goodFork gives each branch its own result cell.
func goodFork(p *par.Pool) (int, int) {
	var a, b int
	p.Fork(
		func() { a = 1 },
		func() { b = 2 },
	)
	return a, b
}

// goodScheduledScatter is a locality-scheduled batch: each task
// reorders its own window through a task-local schedule, then scatters
// answers back to slots derived from the task index. Visiting order is
// task-private; slot ownership still partitions by task, so the shape
// is sanctioned.
func goodScheduledScatter(p *par.Pool, in []int, chunk int) []int {
	out := make([]int, len(in))
	n := (len(in) + chunk - 1) / chunk
	p.ForEach(n, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > len(in) {
			hi = len(in)
		}
		var sched [16]int
		s := sched[:hi-lo]
		for x := range s {
			s[x] = (x * 7) % len(s) // locality order stub
		}
		for _, rec := range s {
			i := lo + rec
			out[i] = in[i] * 2
		}
	})
	return out
}

// badCapturedOffset scatters through an offset captured from outside the
// task: nothing ties the written slot to the task index, so two tasks
// may collide.
func badCapturedOffset(p *par.Pool, in []int, off int) []int {
	out := make([]int, len(in)+1)
	p.ForEach(len(in), func(i int) {
		out[off] = in[i] // want `write to captured out is not indexed by the task index`
	})
	return out
}
