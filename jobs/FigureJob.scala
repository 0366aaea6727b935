package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Figures

/** Spark-submit entry point for the evaluation figures: prints the table
  * `repro.bench.Figures` computes for the named figure, the same table
  * its bench suite prints. Sizes come from REPRO_N and REPRO_SCALE.
  *
  *   spark-submit --class repro.jobs.FigureJob target/scala-2.13/repro_2.13-*.jar fig07
  */
object FigureJob {
  def main(args: Array[String]): Unit = {
    val fig = args.headOption match {
      case Some("fig07") => Figures.fig07()
      case Some("fig08") => Figures.fig08()
      case Some("fig09") => Figures.fig09()
      case Some("fig10") => Figures.fig10()
      case Some("fig11") => Figures.fig11()
      case Some("fig12") => Figures.fig12()
      case Some("fig13") => Figures.fig13()
      case Some("fig14") => Figures.fig14()
      case Some("fig15") => Figures.fig15()
      case Some("fig16") => Figures.fig16()
      case Some("sec73") => Figures.sec73()
      case Some("fig17") =>
        val spark = SparkSession.builder()
          .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
          .appName("fig17")
          .config("spark.sql.shuffle.partitions", "8")
          .getOrCreate()
        try Figures.fig17(spark) finally spark.stop()
      case _ =>
        Console.err.println("usage: FigureJob fig07|fig08|...|fig17|sec73")
        sys.exit(2)
    }
    println(fig.render)
  }
}
