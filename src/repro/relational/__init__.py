"""In-memory relational engine with provenance propagation.

This is the substrate every other subsystem builds on: typed schemas, tables
whose rows carry why/where-provenance, a relational algebra, a logical query
AST with a fluent builder, views, a catalog, an executor, and a SQL-subset
parser.
"""

from repro.relational.algebra import (
    AggSpec,
    aggregate,
    distinct,
    extend,
    join,
    limit,
    order_by,
    project,
    rename,
    select,
    union,
)
from repro.relational.catalog import Catalog, View
from repro.relational.columnar import ColumnarTable, execute_columnar
from repro.relational.engine import Engine, execute, execute_row
from repro.relational.execconfig import (
    COLUMNAR,
    ROW,
    ExecutionConfig,
    get_default_config,
    set_default_config,
)
from repro.relational.io import dumps_csv, loads_csv, read_csv, write_csv
from repro.relational.plancache import JoinIndex, PlanCache, default_plan_cache
from repro.relational.expressions import (
    And,
    Arith,
    Col,
    Comparison,
    Expr,
    InList,
    IsNull,
    Lit,
    Not,
    Or,
    col,
    conjuncts,
    lit,
)
from repro.relational.query import JoinClause, Query
from repro.relational.schema import Column, Schema
from repro.relational.sqlparser import parse_expression, parse_query
from repro.relational.table import CellRef, RowId, RowProvenance, Table, make_schema
from repro.relational.types import ColumnType, coerce_value, parse_date

__all__ = [
    "AggSpec",
    "And",
    "Arith",
    "COLUMNAR",
    "Catalog",
    "CellRef",
    "Col",
    "Column",
    "ColumnType",
    "ColumnarTable",
    "Comparison",
    "Engine",
    "ExecutionConfig",
    "Expr",
    "InList",
    "IsNull",
    "JoinClause",
    "JoinIndex",
    "Lit",
    "Not",
    "Or",
    "PlanCache",
    "Query",
    "ROW",
    "RowId",
    "RowProvenance",
    "Schema",
    "Table",
    "View",
    "aggregate",
    "coerce_value",
    "col",
    "conjuncts",
    "default_plan_cache",
    "distinct",
    "dumps_csv",
    "execute",
    "execute_columnar",
    "execute_row",
    "extend",
    "get_default_config",
    "set_default_config",
    "join",
    "limit",
    "lit",
    "loads_csv",
    "make_schema",
    "order_by",
    "parse_date",
    "parse_expression",
    "parse_query",
    "project",
    "read_csv",
    "rename",
    "select",
    "union",
    "write_csv",
]
