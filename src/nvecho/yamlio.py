"""The package's one YAML reader and printer.

The response data file, the scenario configs and the ``# key: value``
metadata lines of the CSV files are all read by ``load_yaml`` and printed
by ``dump_yaml``.  The reader is libyaml's ``CSafeLoader`` where PyYAML has
it, else the pure-Python ``SafeLoader``.  Neither loads numpy, so a command
that reads a CSV file starts without it; a numpy scalar handed to the
printer is printed as its number.
"""

from __future__ import annotations

import math
import sys

import yaml

# libyaml's parser where PyYAML was built with it: the same documents as the
# pure-Python SafeLoader, parsed several times faster
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_yaml(text):
    """The document of YAML ``text`` as ``yaml.safe_load`` reads it, parsed
    by ``YAML_LOADER``."""
    return yaml.load(text, Loader=YAML_LOADER)


class _Dumper(yaml.SafeDumper):
    """``yaml.safe_dump``'s printer, which prints a numpy scalar as its number
    and, in flow style, a multi-line string double-quoted on one line."""


def _represent_other(dumper, value):
    # every type without a representer of its own; a numpy scalar can only
    # exist once numpy is loaded, so it is looked up, not imported
    numpy = sys.modules.get("numpy")
    if numpy is not None and isinstance(value, numpy.generic):
        return dumper.represent_data(value.item())
    return dumper.represent_undefined(value)


_Dumper.add_multi_representer(object, _represent_other)
_Dumper.add_representer(str, lambda dumper, text: dumper.represent_scalar(
    "tag:yaml.org,2002:str", text, '"' if dumper.default_flow_style and "\n" in text else None))


def dump_yaml(data, sort_keys: bool = True, flow: bool = False) -> str:
    """YAML text of ``data`` that ``load_yaml`` reads back, a tuple as a list:
    a block-style document, or with ``flow`` one flow-style line without the
    document end marker, as a ``# key: value`` metadata line holds it."""
    text = yaml.dump(data, Dumper=_Dumper, sort_keys=sort_keys, default_flow_style=flow,
                     width=math.inf if flow else None)
    return text.removesuffix("\n").removesuffix("\n...") if flow else text
