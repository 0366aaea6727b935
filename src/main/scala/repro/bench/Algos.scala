package repro.bench

import repro.core.{Monoid, Swag}
import repro.core.baseline.{Amta, DeamortizedTwoStacks, TwoStacksLite}
import repro.core.fiba.{BFiba, NbFiba}

/** Algorithm roster used across the benchmarks — the same set the paper
  * compares (§7): b_fiba{4,8}, nb_fiba{4,8}, amta, twostacks_lite, and
  * our daba_lite stand-in. In-order-only algorithms are excluded from
  * out-of-order experiments, exactly as in the paper's figures.
  */
object Algos {

  /** One factory per algorithm, for any monoid. A trait rather than a
    * method so a figure can take the roster as an argument.
    */
  trait Roster { def apply[V](m: Monoid[V]): Seq[() => Swag[V]] }

  /** Out-of-order-capable subset (Figs 9, 13, 14, 16). */
  val ooo: Roster = new Roster {
    def apply[V](m: Monoid[V]): Seq[() => Swag[V]] = Seq(
      () => new BFiba[V](4, m),
      () => new BFiba[V](8, m),
      () => new NbFiba[V](4, m),
      () => new NbFiba[V](8, m),
    )
  }

  /** The full roster (in-order experiments). */
  val all: Roster = new Roster {
    def apply[V](m: Monoid[V]): Seq[() => Swag[V]] = ooo(m) ++ Seq(
      () => new Amta[V](m),
      () => new TwoStacksLite[V](m),
      () => new DeamortizedTwoStacks[V](m),
    )
  }

  /** Memory-management ablation variants (Fig 10). */
  val memAblation: Roster = new Roster {
    def apply[V](m: Monoid[V]): Seq[() => Swag[V]] = Seq(
      () => new BFiba[V](4, m, useFreeList = true),
      () => new BFiba[V](4, m, useFreeList = false),
      () => new BFiba[V](8, m, useFreeList = true),
      () => new BFiba[V](8, m, useFreeList = false),
    )
  }
}
