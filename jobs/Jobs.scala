package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.{BenchDatasets, TableRunners}
import repro.core.Suspiciousness

/** spark-submit entrypoints, one per reproduced table:
  *
  * {{{
  * sbt package
  * spark-submit --class repro.jobs.Table3Job target/scala-2.13/repro_2.13-*.jar
  * spark-submit --class repro.jobs.Table4Job target/scala-2.13/repro_2.13-*.jar [grabOnly]
  * spark-submit --class repro.jobs.Table5Job target/scala-2.13/repro_2.13-*.jar
  * }}}
  */
object JobSession {
  def make(name: String): SparkSession = SparkSession.builder()
    .appName(name)
    .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
    .getOrCreate()
}

/** Regenerates Table 3 (dataset statistics). */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.make("spade-table3")
    try TableRunners.printTable3(TableRunners.table3(spark, BenchDatasets.allSpecs))
    finally spark.stop()
  }
}

/** Regenerates Table 4 (incremental maintenance by batch size). */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.make("spade-table4")
    val specs = if (args.contains("grabOnly")) BenchDatasets.grabSpecs else BenchDatasets.allSpecs
    try {
      val rows = for {
        spec <- specs
        metric <- Suspiciousness.paperMetrics
      } yield TableRunners.table4Cell(spark, spec, metric, TableRunners.Table4BatchSizes)
      TableRunners.printTable4(rows, TableRunners.Table4BatchSizes)
    } finally spark.stop()
  }
}

/** Regenerates Table 5 (latency + edge grouping + prevention ratio). */
object Table5Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.make("spade-table5")
    try {
      val rows = for {
        spec <- BenchDatasets.grabSpecs
        metric <- Suspiciousness.paperMetrics
      } yield TableRunners.table5Cell(spark, spec, metric)
      TableRunners.printTable5(rows)
    } finally spark.stop()
  }
}
