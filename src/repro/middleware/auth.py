"""Token-auth middleware: reject unauthenticated requests at the front door.

One static token guards every endpoint except ``/health``, so load
balancers can probe without credentials.  Clients present the token either
as ``Authorization: Bearer <token>`` or as an ``X-API-Token`` header;
comparison is constant-time.  This is deliberately the simplest credential
that still exercises the composition point — a richer scheme (key sets,
scopes) slots in as another middleware without touching the server or the
routes.
"""

from __future__ import annotations

import hmac

from repro.middleware import Handler, Middleware, Request, json_response

__all__ = ["token_auth"]


def _presented_token(request: Request) -> str:
    authorization = request.headers.get("authorization", "")
    if authorization.lower().startswith("bearer "):
        return authorization[len("bearer "):].strip()
    return request.headers.get("x-api-token", "")


def token_auth(token: str) -> Middleware:
    """Require ``token`` on every request but ``/health``."""
    if not token:
        raise ValueError("token_auth needs a non-empty token")

    def middleware(handler: Handler) -> Handler:
        async def guarded(request: Request):
            if request.path == "/health":
                return await handler(request)
            supplied = _presented_token(request)
            if not supplied or not hmac.compare_digest(supplied, token):
                return json_response(
                    {"error": "unauthorized"},
                    status=401,
                    headers={"WWW-Authenticate": "Bearer"},
                )
            return await handler(request)

        return guarded

    return middleware
