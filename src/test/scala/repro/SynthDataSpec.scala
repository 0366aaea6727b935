package repro

import org.apache.spark.sql.functions._

/** Sanity checks for the synthetic generators plus a DuckDB-oracle round
  * trip on a plain aggregation query (exercises the Oracle plumbing end
  * to end before the windowed tests rely on it).
  */
class SynthDataSpec extends SparkSpec {

  test("zipf keys are skewed, uniform keys are not") {
    val z = SynthData.zipfKeys(spark, 20000, 1000)
    val u = SynthData.uniformKeys(spark, 20000, 1000)
    val zTop = z.groupBy("k").count().orderBy(desc("count")).head.getLong(1)
    val uTop = u.groupBy("k").count().orderBy(desc("count")).head.getLong(1)
    assert(zTop > 3 * uTop, s"zipf head $zTop should dominate uniform head $uTop")
  }

  test("oracle round trip: grouped aggregate matches DuckDB") {
    val u = SynthData.uniformKeys(spark, 6000, 20)
    val got = u.groupBy("k")
      .agg(sum("v").as("sum_v"), count(lit(1)).as("cnt"))
      .select(col("k"), col("sum_v"), col("cnt"))
    Oracle.assertEquivalent(
      got,
      "SELECT k, SUM(CAST(v AS DOUBLE)) AS sum_v, COUNT(*) AS cnt FROM u GROUP BY k",
      "u" -> u)
  }
}
