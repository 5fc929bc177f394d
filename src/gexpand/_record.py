"""The base of the package's immutable records.

It stands in for ``dataclasses``, whose import (``inspect``, ``ast``,
``dis``, ``tokenize``) and per-class set-up would cost every run of the
command line a noticeable share of its start-up time.
"""

from __future__ import annotations

from functools import partial

_set = object.__setattr__


class Record:
    """An immutable record whose fields are its public slots.

    A subclass names its fields in ``__slots__``, in constructor order,
    after those of its base; a slot whose name starts with ``_`` holds
    private state and is not a field.  ``_defaults`` maps the fields
    that may be left out to their defaults, and ``kw_only=True`` in the
    class statement makes the subclass's own fields keyword-only.

    Unless the subclass defines its own, the generated ``__init__``
    takes the fields as parameters, assigns them and calls
    ``__post_init__``.  Records of one class compare and hash by their
    field values in order, and refuse assignment with
    ``AttributeError``.
    """

    __slots__ = ()
    _fields: tuple = ()
    _positional: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, kw_only: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(f for f in cls.__dict__.get("__slots__", ())
                    if not f.startswith("_"))
        base = cls.__mro__[1]
        cls._defaults = {**base._defaults, **cls.__dict__.get("_defaults", {})}
        cls._fields = base._fields + own
        cls._positional = base._positional + (() if kw_only else own)
        cls.__match_args__ = cls._positional
        if "__init__" in cls.__dict__:
            return
        # One function per class, built from its field list the way
        # ``dataclasses`` builds one, so that its signature is the
        # record's.
        def param(f: str) -> str:
            return f"{f}=_d[{f!r}]" if f in cls._defaults else f

        params = [param(f) for f in cls._positional]
        keywords = [param(f) for f in cls._fields if f not in cls._positional]
        if keywords:
            params += ["*", *keywords]
        body = "".join(f"    _set(self, {f!r}, {f})\n" for f in cls._fields)
        namespace: dict = {}
        exec(f"def __init__(self, {', '.join(params)}):\n{body}"
             f"    self.__post_init__()\n",
             {"_d": cls._defaults, "_set": _set}, namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __post_init__(self) -> None:
        """The checks of a new record; a subclass overrides it."""

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return partial(self.__class__, **self.asdict()), ()

    def asdict(self) -> dict:
        """The fields and their values, in field order."""
        return {f: getattr(self, f) for f in self._fields}

    def replace(self, **changes):
        """A copy with the given fields changed; its checks run again."""
        return self.__class__(**{**self.asdict(), **changes})
