package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Base for the per-figure benchmark suites: each runs its figure's
  * function in `Figures`, prints the table (the numbers behind the
  * paper's plot) and applies only *robust* shape assertions — orderings
  * the paper reports with orders-of-magnitude margins — so timing noise
  * cannot flake the build.
  */
trait BenchSuite extends AnyFunSuite {
  /** Print a figure's table so it lands in the sbt test output. */
  def emit(fig: Figures.Table[Any]): Unit = {
    // Console.out survives sbt's test-output capture in forked JVMs.
    println()
    println(fig.render)
  }
}
