package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Tx

/** Bridge between the DataFrame world (generation, stats, streaming) and the
  * driver-side evolving-graph state that Spade maintains.
  *
  * The transaction *stream* is distributed data; the peeling sequence is an
  * inherently sequential driver-side structure (the paper's algorithm is a
  * priority-queue merge), so the boundary is: DataFrames produce ordered
  * micro-batches of [[Tx]], Spade consumes them.
  */
object TxFrames {

  /** Collect a transaction DataFrame to the driver in arrival order. */
  def collectOrdered(df: DataFrame): Array[Tx] =
    df.select(col("src").cast("int"), col("dst").cast("int"),
              col("amount").cast("double"), col("ts").cast("double"),
              col("fraudId").cast("int"))
      .orderBy("ts", "src", "dst")
      .collect()
      .map(r => Tx(r.getInt(0), r.getInt(1), r.getDouble(2), r.getDouble(3), r.getInt(4)))

  /** Split a stream into the initial graph (first `1 - incrementFraction`)
    * and the increments (the tail), as §5 does with the Grab datasets.
    */
  def splitInitialIncrements(txs: Array[Tx], incrementFraction: Double): (Array[Tx], Array[Tx]) = {
    require(incrementFraction > 0 && incrementFraction < 1, "fraction must be in (0,1)")
    val cut = math.max(0, (txs.length * (1 - incrementFraction)).toInt)
    (txs.take(cut), txs.drop(cut))
  }

  /** Table-3 statistics computed with Spark SQL (oracle-checked in tests):
    * the materialized account space `|V| = max id + 1` (isolated accounts
    * are legitimate weight-0 vertices of the evolving graph), edges, average
    * degree `2|E|/|V|`, and the increment count at the given fraction.
    * FLOOR is explicit — Spark truncates integral casts, DuckDB rounds.
    */
  def graphStats(spark: SparkSession, df: DataFrame, incrementFraction: Double): DataFrame = {
    df.createOrReplaceTempView("txs")
    spark.sql(
      s"""SELECT v, e, ROUND(2.0 * e / v, 3) AS avg_degree,
         |       CAST(FLOOR(e * $incrementFraction) AS BIGINT) AS increments
         |FROM (
         |  SELECT MAX(GREATEST(src, dst)) + 1 AS v, COUNT(*) AS e FROM txs
         |)""".stripMargin)
  }

  /** Per-vertex weighted degree `w_u(S_0) - a_u` as a DataFrame — the SQL
    * twin of `DynGraph.incidentWeight`, cross-checked by the oracle.
    */
  def weightedDegrees(df: DataFrame): DataFrame = {
    val out = df.groupBy(col("src").as("v")).agg(sum("w").as("wsum"))
    val in  = df.groupBy(col("dst").as("v")).agg(sum("w").as("wsum"))
    out.unionByName(in).groupBy("v").agg(sum("wsum").as("w0"))
  }
}
