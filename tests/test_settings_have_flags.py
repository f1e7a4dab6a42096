"""Every setting of a design or toxtrain run can be set from the command
line: each field of DesignRun and ToxTrainOptions is the dest of a flag of
its command, or is listed below with the reason it has none.  A field that
no caller can set belongs in a module constant."""

import argparse
import dataclasses

import pytest

from peptaste import pipeline
from peptaste.cli import build_parser

WITHOUT_FLAG = {
    ("toxtrain", "member_names"): "the toxtrain golden's way to cover ERT and AdaBoost",
}


def flag_dests(command: str) -> set[str]:
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest for action in sub.choices[command]._actions}


@pytest.mark.parametrize(
    "command, settings",
    [("design", pipeline.DesignRun), ("toxtrain", pipeline.ToxTrainOptions)],
)
def test_every_setting_has_a_flag_or_a_reason(command, settings):
    dests = flag_dests(command)
    fields = {f.name for f in dataclasses.fields(settings)}
    listed = {name for cmd, name in WITHOUT_FLAG if cmd == command}
    assert sorted(fields - dests - listed) == []
    # an entry whose field gained a flag or went away is stale
    assert sorted(listed - (fields - dests)) == []
