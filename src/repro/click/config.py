"""Parser for the Click configuration language (the subset EndBox uses).

Supported grammar::

    // line comment            /* block comment */
    name :: ClassName(arg1, arg2);          declaration
    a -> b -> c;                             connection chain
    a[1] -> [0]b;                            explicit ports
    src -> ClassName(args) -> dst;           anonymous elements inline

Arguments are comma-separated strings; nested parentheses and quoted
strings are honoured.  The parser returns a :class:`ParsedConfig` of
declarations and connections that :class:`~repro.click.router.Router`
instantiates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class ClickSyntaxError(ValueError):
    """Malformed Click configuration text."""


@dataclass
class Declaration:
    name: str
    class_name: str
    args: List[str]


@dataclass
class Connection:
    src: str
    src_port: int
    dst: str
    dst_port: int


@dataclass
class ParsedConfig:
    declarations: List[Declaration] = field(default_factory=list)
    connections: List[Connection] = field(default_factory=list)


_DECLARATION_RE = re.compile(
    r"^(?P<name>[A-Za-z_][\w]*)\s*::\s*(?P<cls>[A-Za-z_][\w]*)\s*(?:\((?P<args>.*)\))?$",
    re.S,
)
_NODE_RE = re.compile(
    r"^(?:\[(?P<inport>\d+)\])?\s*(?P<body>[A-Za-z_][\w]*(?:\s*\(.*\))?)\s*(?:\[(?P<outport>\d+)\])?$",
    re.S,
)


def _strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    text = re.sub(r"//[^\n]*", " ", text)
    return text


def _split_top_level(text: str, separator: str) -> List[str]:
    """Split on ``separator`` outside parentheses/quotes."""
    parts: List[str] = []
    depth = 0
    quote: Optional[str] = None
    current: List[str] = []
    i = 0
    sep_len = len(separator)
    while i < len(text):
        char = text[i]
        if quote is not None:
            current.append(char)
            if char == quote:
                quote = None
            i += 1
            continue
        if char in "\"'":
            quote = char
            current.append(char)
            i += 1
            continue
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise ClickSyntaxError("unbalanced ')'")
        if depth == 0 and text.startswith(separator, i):
            parts.append("".join(current))
            current = []
            i += sep_len
            continue
        current.append(char)
        i += 1
    if depth != 0:
        raise ClickSyntaxError("unbalanced '('")
    if quote is not None:
        raise ClickSyntaxError("unterminated string")
    parts.append("".join(current))
    return parts


def _parse_args(args_text: Optional[str]) -> List[str]:
    if args_text is None or not args_text.strip():
        return []
    return [arg.strip() for arg in _split_top_level(args_text, ",")]


class _AnonymousNamer:
    def __init__(self) -> None:
        self.counter = 0

    def next_name(self, class_name: str) -> str:
        self.counter += 1
        return f"_anon_{class_name}_{self.counter}"


def parse_config(text: str) -> ParsedConfig:
    """Parse Click configuration ``text``."""
    config = ParsedConfig()
    namer = _AnonymousNamer()
    known: Dict[str, Declaration] = {}
    cleaned = _strip_comments(text)
    for raw_statement in _split_top_level(cleaned, ";"):
        statement = raw_statement.strip()
        if not statement:
            continue
        match = _DECLARATION_RE.match(statement)
        if match is not None and "->" not in statement.split("(")[0]:
            declaration = Declaration(
                name=match.group("name"),
                class_name=match.group("cls"),
                args=_parse_args(match.group("args")),
            )
            if declaration.name in known:
                raise ClickSyntaxError(f"element {declaration.name!r} declared twice")
            known[declaration.name] = declaration
            config.declarations.append(declaration)
            continue
        if "->" in statement:
            _parse_chain(statement, config, known, namer)
            continue
        raise ClickSyntaxError(f"cannot parse statement: {statement!r}")
    _validate(config, known)
    return config


def _parse_chain(statement: str, config: ParsedConfig, known: Dict[str, Declaration], namer: _AnonymousNamer) -> None:
    nodes = [node.strip() for node in _split_top_level(statement, "->")]
    if len(nodes) < 2:
        raise ClickSyntaxError(f"dangling '->' in {statement!r}")
    resolved: List[Tuple[str, int, int]] = []  # (name, in_port, out_port)
    for node_text in nodes:
        match = _NODE_RE.match(node_text)
        if match is None:
            raise ClickSyntaxError(f"cannot parse connection node {node_text!r}")
        in_port = int(match.group("inport") or 0)
        out_port = int(match.group("outport") or 0)
        body = match.group("body").strip()
        if "(" in body:
            class_name = body.split("(", 1)[0].strip()
            args_text = body[body.index("(") + 1 : body.rindex(")")]
            name = namer.next_name(class_name)
            declaration = Declaration(name=name, class_name=class_name, args=_parse_args(args_text))
            known[name] = declaration
            config.declarations.append(declaration)
        else:
            name = body
        resolved.append((name, in_port, out_port))
    for (src, _si, s_out), (dst, d_in, _do) in zip(resolved, resolved[1:]):
        config.connections.append(Connection(src=src, src_port=s_out, dst=dst, dst_port=d_in))


def _validate(config: ParsedConfig, known: Dict[str, Declaration]) -> None:
    for connection in config.connections:
        for name in (connection.src, connection.dst):
            if name not in known:
                raise ClickSyntaxError(f"connection references undeclared element {name!r}")
