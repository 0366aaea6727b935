package repro.bench

/** Figure 10: memory-management ablation on bulk evict, m = 4096. The
  * paper's axes are allocator (mimalloc vs libc — no JVM equivalent; see
  * DESIGN.md) and the deferred free list (on vs "nofl"). Paper result:
  * the free list is indispensable — nofl performs much worse — while the
  * allocator choice made little difference.
  */
class Fig10MemAblationBench extends BenchSuite {
  test("fig 10: free-list ablation, bulk evict, m=4096 d=0") {
    val fig = Figures.fig10()
    emit(fig)
    val fl4 = fig.cells(("sum", "b_fiba4"))
    val nofl4 = fig.cells(("sum", "b_fiba4_nofl"))
    // Paper shape: deferring reclamation is indispensable for bulk evict.
    assert(fl4 * 2 < nofl4,
      s"expected free-list b_fiba4 ($fl4 ns) to beat nofl ($nofl4 ns) by >2x")
  }
}
