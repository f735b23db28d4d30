"""Workload generators: synthetic (null/dummy/mixed), IMPECCABLE and
generic workflow DAGs."""

from .dag import (
    FAIL_FAST,
    SKIP_DEPENDENTS,
    Workflow,
    WorkflowNode,
    WorkflowResult,
    WorkflowRunner,
)
from .replay import ReplayRunner, TimedTask, workload_from_trace
from .impeccable import (
    IMPECCABLE_STAGES,
    CampaignResult,
    CampaignRunner,
    StageTemplate,
    campaign_plan,
    make_stage_tasks,
    min_scalable_tasks,
    stage_task_count,
)
from .synthetic import (
    DEFAULT_WAVES,
    dummy_workload,
    mixed_workload,
    null_workload,
    task_count,
)

__all__ = [
    "DEFAULT_WAVES",
    "FAIL_FAST",
    "IMPECCABLE_STAGES",
    "ReplayRunner",
    "SKIP_DEPENDENTS",
    "TimedTask",
    "Workflow",
    "WorkflowNode",
    "WorkflowResult",
    "WorkflowRunner",
    "CampaignResult",
    "CampaignRunner",
    "StageTemplate",
    "campaign_plan",
    "dummy_workload",
    "make_stage_tasks",
    "min_scalable_tasks",
    "mixed_workload",
    "null_workload",
    "stage_task_count",
    "task_count",
    "workload_from_trace",
]
